package binproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hbb/internal/memcached"
)

func TestFrameRoundTrip(t *testing.T) {
	in := &Frame{
		Magic:  MagicRequest,
		Op:     OpSet,
		Opaque: 0xdeadbeef,
		CAS:    42,
		Extras: SetExtras(7, 100),
		Key:    []byte("hello"),
		Value:  []byte("world"),
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	if buf.Len() != HeaderSize+8+5+5 {
		t.Errorf("frame length = %d", buf.Len())
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestEmptyPartsRoundTrip(t *testing.T) {
	in := &Frame{Magic: MagicResponse, Op: OpNoop, Status: StatusOK}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if out.Op != OpNoop || len(out.Key) != 0 || len(out.Value) != 0 || len(out.Extras) != 0 {
		t.Errorf("got %+v", out)
	}
}

func TestPropertyRandomFramesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Frame{
			Magic:  MagicRequest,
			Op:     Opcode(rng.Intn(0x20)),
			Opaque: rng.Uint32(),
			CAS:    rng.Uint64(),
			Extras: randBytes(rng, rng.Intn(21)),
			Key:    randBytes(rng, rng.Intn(200)),
			Value:  randBytes(rng, rng.Intn(5000)),
		}
		if rng.Intn(2) == 0 {
			in.Magic = MagicResponse
			in.Status = Status(rng.Intn(7))
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		return in.Magic == out.Magic && in.Op == out.Op &&
			(in.Magic == MagicRequest || in.Status == out.Status) &&
			in.Opaque == out.Opaque && in.CAS == out.CAS &&
			bytes.Equal(in.Extras, out.Extras) &&
			bytes.Equal(in.Key, out.Key) &&
			bytes.Equal(in.Value, out.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	if n == 0 {
		return []byte{}
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestBadMagicRejected(t *testing.T) {
	raw := make([]byte, HeaderSize)
	raw[0] = 0x55
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{MagicRequest, 0x00})); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTruncatedBody(t *testing.T) {
	in := &Frame{Magic: MagicRequest, Op: OpSet, Key: []byte("key"), Value: []byte("value")}
	var buf bytes.Buffer
	_ = Write(&buf, in)
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestBodyShorterThanParts(t *testing.T) {
	raw := make([]byte, HeaderSize)
	raw[0] = MagicRequest
	raw[2], raw[3] = 0, 10 // key length 10
	// body length stays 0 -> inconsistent
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("inconsistent lengths accepted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	raw := make([]byte, HeaderSize)
	raw[0] = MagicRequest
	raw[8], raw[9], raw[10], raw[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
	long := &Frame{Magic: MagicRequest, Key: make([]byte, 1<<17)}
	if err := Write(io.Discard, long); err == nil {
		t.Error("128KiB key accepted (protocol max is 64KiB)")
	}
}

func TestExtrasCodecs(t *testing.T) {
	f, x, err := ParseSetExtras(SetExtras(0xabcd, 0x1234))
	if err != nil || f != 0xabcd || x != 0x1234 {
		t.Errorf("set extras: %x %x %v", f, x, err)
	}
	g, err := ParseGetExtras(GetExtras(99))
	if err != nil || g != 99 {
		t.Errorf("get extras: %d %v", g, err)
	}
	d, i, e2, err := ParseCounterExtras(CounterExtras(5, 10, 20))
	if err != nil || d != 5 || i != 10 || e2 != 20 {
		t.Errorf("counter extras: %d %d %d %v", d, i, e2, err)
	}
	te, err := ParseTouchExtras(TouchExtras(77))
	if err != nil || te != 77 {
		t.Errorf("touch extras: %d %v", te, err)
	}
	v, err := ParseCounterValue(CounterValue(1 << 40))
	if err != nil || v != 1<<40 {
		t.Errorf("counter value: %d %v", v, err)
	}
	if _, _, err := ParseSetExtras([]byte{1}); err == nil {
		t.Error("short set extras accepted")
	}
	if _, err := ParseGetExtras(nil); err == nil {
		t.Error("nil get extras accepted")
	}
	if _, _, _, err := ParseCounterExtras([]byte{1, 2}); err == nil {
		t.Error("short counter extras accepted")
	}
	if _, err := ParseCounterValue([]byte{1}); err == nil {
		t.Error("short counter value accepted")
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	if OpGet.String() != "GET" || OpStat.String() != "STAT" {
		t.Error("opcode strings wrong")
	}
	if Opcode(0x77).String() == "" {
		t.Error("unknown opcode has empty string")
	}
	if StatusOK.String() != "OK" || StatusKeyNotFound.String() != "key not found" {
		t.Error("status strings wrong")
	}
	if Status(0x9999).String() == "" {
		t.Error("unknown status has empty string")
	}
}

func TestKeyAndExtrasCapsEnforced(t *testing.T) {
	// Write side: oversized sections rejected before any bytes hit the wire.
	if err := Write(io.Discard, &Frame{Magic: MagicRequest, Key: make([]byte, MaxKeyLen+1)}); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("long key write: %v", err)
	}
	if err := Write(io.Discard, &Frame{Magic: MagicRequest, Extras: make([]byte, MaxExtrasLen+1)}); !errors.Is(err, ErrExtrasTooLong) {
		t.Errorf("long extras write: %v", err)
	}
	// Read side: a handcrafted header claiming oversized sections must fail
	// with a protocol error instead of driving the allocation.
	mk := func(keyLen, extLen, bodyLen int) []byte {
		raw := make([]byte, HeaderSize)
		raw[0] = MagicRequest
		raw[2], raw[3] = byte(keyLen>>8), byte(keyLen)
		raw[4] = byte(extLen)
		raw[8], raw[9], raw[10], raw[11] = byte(bodyLen>>24), byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen)
		return raw
	}
	if _, err := Read(bytes.NewReader(mk(MaxKeyLen+1, 0, MaxKeyLen+1))); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("long key read: %v", err)
	}
	if _, err := Read(bytes.NewReader(mk(0, MaxExtrasLen+1, MaxExtrasLen+1))); !errors.Is(err, ErrExtrasTooLong) {
		t.Errorf("long extras read: %v", err)
	}
	if _, err := Read(bytes.NewReader(mk(0, 0, MaxBody+1))); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized body read: %v", err)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	in := &Frame{Magic: MagicRequest, Op: OpSet, Extras: SetExtras(1, 2), Key: []byte("k1"), Value: []byte("first-value")}
	if err := Write(&wire, in); err != nil {
		t.Fatal(err)
	}
	in2 := &Frame{Magic: MagicRequest, Op: OpSet, Extras: SetExtras(3, 4), Key: []byte("k2"), Value: []byte("second")}
	if err := Write(&wire, in2); err != nil {
		t.Fatal(err)
	}
	var f Frame
	buf, err := ReadFrame(&wire, &f, nil)
	if err != nil || string(f.Key) != "k1" || string(f.Value) != "first-value" {
		t.Fatalf("first frame: %+v %v", f, err)
	}
	first := buf
	buf, err = ReadFrame(&wire, &f, buf)
	if err != nil || string(f.Key) != "k2" || string(f.Value) != "second" {
		t.Fatalf("second frame: %+v %v", f, err)
	}
	if &first[0] != &buf[0] {
		t.Error("buffer not reused despite sufficient capacity")
	}
}

// TestReadHeadLeavesTheValueToTheCaller: head after head from one stream,
// the caller reading or discarding each value, the head buffer bounded by
// the longest extras and key whatever body length a header declares.
func TestReadHeadLeavesTheValueToTheCaller(t *testing.T) {
	longKey := bytes.Repeat([]byte("k"), MaxKeyLen)
	frames := []*Frame{
		{Magic: MagicRequest, Op: OpSet, Opaque: 1, CAS: 7, Extras: SetExtras(1, 2), Key: []byte("k1"), Value: bytes.Repeat([]byte("v"), 3*memcached.InlineValue)},
		{Magic: MagicRequest, Op: OpGet, Opaque: 2, Key: longKey},
		{Magic: MagicRequest, Op: OpIncrement, Opaque: 3, Extras: CounterExtras(1, 2, 3), Key: longKey},
		{Magic: MagicRequest, Op: OpSet, Opaque: 4, Extras: SetExtras(0, 0), Key: []byte("k4"), Value: []byte("tail")},
	}
	var wire []byte
	for _, f := range frames {
		var err error
		if wire, err = AppendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	var f Frame
	var buf []byte
	for i, want := range frames {
		var n int
		var err error
		buf, n, err = ReadHead(r, &f, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Op != want.Op || f.Opaque != want.Opaque || f.CAS != want.CAS ||
			!bytes.Equal(f.Extras, want.Extras) || !bytes.Equal(f.Key, want.Key) || f.Value != nil || n != len(want.Value) {
			t.Fatalf("frame %d: head %+v with a %d-byte value, want %+v", i, f, n, want)
		}
		if i%2 == 0 {
			value := make([]byte, n)
			if _, err := io.ReadFull(r, value); err != nil || !bytes.Equal(value, want.Value) {
				t.Fatalf("frame %d: value read after the head: %v", i, err)
			}
		} else if _, err := r.Discard(n); err != nil {
			t.Fatal(err)
		}
		if cap(buf) > 512 {
			t.Fatalf("frame %d: head buffer grew to %d bytes", i, cap(buf))
		}
	}
	if _, _, err := ReadHead(r, &f, buf); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}

	// A header that declares MaxBody and brings nothing: the head is read,
	// the declared length is only reported.
	huge, _ := AppendHeader(nil, &Frame{Magic: MagicRequest, Op: OpSet, Extras: SetExtras(0, 0), Key: []byte("k")})
	huge[8], huge[9], huge[10], huge[11] = 0x04, 0, 0, 0 // total body: 64 MiB
	allocs := testing.AllocsPerRun(10, func() {
		var n int
		var err error
		if buf, n, err = ReadHead(bytes.NewReader(huge), &f, buf); err != nil || n != MaxBody-9 {
			t.Fatalf("declared-huge frame: value %d, %v", n, err)
		}
	})
	if allocs > 1 { // the bytes.Reader
		t.Errorf("ReadHead of a declared 64 MiB body allocates %v times", allocs)
	}
	for cut := 1; cut < len(huge); cut++ {
		if _, _, err := ReadHead(bytes.NewReader(huge[:cut]), &f, buf); err != io.ErrUnexpectedEOF {
			t.Fatalf("head cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestAppendFrameMatchesWrite(t *testing.T) {
	in := &Frame{Magic: MagicResponse, Op: OpGet, Status: StatusOK, Opaque: 5, CAS: 6,
		Extras: GetExtras(9), Key: []byte("key"), Value: []byte("value")}
	var viaWrite bytes.Buffer
	if err := Write(&viaWrite, in); err != nil {
		t.Fatal(err)
	}
	viaAppend, err := AppendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWrite.Bytes(), viaAppend) {
		t.Errorf("encodings differ:\nwrite:  %x\nappend: %x", viaWrite.Bytes(), viaAppend)
	}
}

func TestLargeValueVectoredWrite(t *testing.T) {
	val := make([]byte, memcached.InlineValue*3)
	for i := range val {
		val[i] = byte(i)
	}
	in := &Frame{Magic: MagicRequest, Op: OpSet, Extras: SetExtras(0, 0), Key: []byte("big"), Value: val}
	var wire bytes.Buffer
	if err := Write(&wire, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&wire)
	if err != nil || !bytes.Equal(out.Value, val) {
		t.Fatalf("large value round trip: %v", err)
	}
}

func TestQuietOpcodes(t *testing.T) {
	if !OpGetQ.Quiet() || !OpSetQ.Quiet() || OpGet.Quiet() || OpNoop.Quiet() {
		t.Error("Quiet() misclassifies")
	}
	if OpGetQ.String() != "GETQ" || OpSetQ.String() != "SETQ" {
		t.Error("quiet opcode strings wrong")
	}
}

// TestReadBufferedMatchesRead: the bufio decode path must agree with Read
// on every frame shape — including an empty body and a body larger than the
// reader's buffer — own what it returns, and report truncation like Read.
func TestReadBufferedMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := []*Frame{
		{Magic: MagicResponse, Op: OpSet, Opaque: 1, CAS: 9},
		{Magic: MagicResponse, Op: OpGet, Opaque: 2, Extras: GetExtras(3), Value: []byte("v")},
		{Magic: MagicResponse, Op: OpStat, Opaque: 3, Key: []byte("pid"), Value: []byte("1")},
		{Magic: MagicResponse, Op: OpGet, Opaque: 4, Extras: GetExtras(0), Value: randBytes(rng, 3*4096)},
	}
	var wire []byte
	for _, f := range frames {
		var err error
		if wire, err = AppendFrame(wire, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReaderSize(bytes.NewReader(wire), 4096)
	want := bytes.NewReader(wire)
	for i := range frames {
		var got Frame
		if err := ReadBuffered(r, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ref, err := Read(want)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != ref.Op || got.Opaque != ref.Opaque || got.CAS != ref.CAS || got.Status != ref.Status ||
			!bytes.Equal(got.Extras, ref.Extras) || !bytes.Equal(got.Key, ref.Key) || !bytes.Equal(got.Value, ref.Value) {
			t.Errorf("frame %d: ReadBuffered %+v, Read %+v", i, got, *ref)
		}
		if i == 0 && (got.Extras != nil || got.Key != nil || got.Value != nil) {
			t.Errorf("empty body allocated: %+v", got)
		}
	}
	var f Frame
	if err := ReadBuffered(r, &f); err != io.EOF {
		t.Errorf("at end of stream: %v, want io.EOF", err)
	}
	if err := ReadBuffered(bufio.NewReader(bytes.NewReader(wire[:10])), &f); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header: %v, want io.ErrUnexpectedEOF", err)
	}
	// The second frame (the first is a bare header) cut two bytes into its body.
	if err := ReadBuffered(bufio.NewReader(bytes.NewReader(wire[HeaderSize:2*HeaderSize+2])), &f); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	bad := append([]byte(nil), wire...)
	bad[0] = 0x42
	if err := ReadBuffered(bufio.NewReader(bytes.NewReader(bad)), &f); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
}

// TestBufferedSeesOnlyCompleteFrames: Buffered must say yes exactly when a
// whole frame sits in the reader's buffer, so a caller that reads on yes
// never blocks.
func TestBufferedSeesOnlyCompleteFrames(t *testing.T) {
	one, err := AppendFrame(nil, &Frame{Magic: MagicResponse, Op: OpGet, Extras: GetExtras(0), Value: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	two := append(append([]byte(nil), one...), one...)
	for cut := 0; cut <= len(two); cut++ {
		r := bufio.NewReader(bytes.NewReader(two[:cut]))
		r.Peek(1) // fill the buffer with whatever the stream has
		if got, want := Buffered(r), cut >= len(one); got != want {
			t.Fatalf("%d of %d bytes buffered: Buffered = %v, want %v", cut, len(one), got, want)
		}
		if cut < len(one) {
			continue
		}
		var f Frame
		if err := ReadBuffered(r, &f); err != nil {
			t.Fatal(err)
		}
		if got, want := Buffered(r), cut == len(two); got != want {
			t.Fatalf("after one frame, %d bytes left: Buffered = %v, want %v", cut-len(one), got, want)
		}
	}
}

// TestAppendHeaderPlusValueIsAppendFrame: the prefix a queueing sender
// writes ahead of an uncopied value must be the frame minus that value.
func TestAppendHeaderPlusValueIsAppendFrame(t *testing.T) {
	f := &Frame{Magic: MagicRequest, Op: OpSet, Opaque: 5, Extras: SetExtras(1, 2), Key: []byte("k"), Value: []byte("a large value, by reference")}
	whole, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := AppendHeader([]byte("x"), f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(prefix[1:], f.Value...), whole) {
		t.Error("AppendHeader + value differs from AppendFrame")
	}
	f.Key = bytes.Repeat([]byte{'k'}, MaxKeyLen+1)
	if out, err := AppendHeader([]byte("x"), f); !errors.Is(err, ErrKeyTooLong) || len(out) != 1 {
		t.Errorf("invalid frame: appended %d bytes, err %v", len(out)-1, err)
	}
}
