package binproto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadHead feeds ReadHead arbitrary bytes. It must never panic, and
// whatever it accepts must respect the caps: sections within MaxKeyLen and
// MaxExtrasLen, a value within MaxBody, a head buffer that never grows past
// 512 bytes, and exactly the header, extras and key consumed. An empty
// stream is the only bare io.EOF.
func FuzzReadHead(f *testing.F) {
	valid, err := AppendFrame(nil, &Frame{Magic: MagicResponse, Op: OpGet, Opaque: 7, CAS: 3,
		Extras: GetExtras(1), Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	badMagic := append([]byte{0x42}, valid[1:]...)
	f.Add(badMagic)
	short, _ := AppendHeader(nil, &Frame{Magic: MagicRequest, Op: OpSet, Extras: SetExtras(0, 0), Key: []byte("k")})
	short[11] = 4 // body 4 < extras 8 + key 1
	f.Add(short)
	huge, _ := AppendHeader(nil, &Frame{Magic: MagicResponse, Op: OpGet, Extras: GetExtras(0)})
	huge[8], huge[9], huge[10], huge[11] = 0x04, 0, 0, 0 // body: MaxBody
	f.Add(huge)
	tooHuge := append([]byte(nil), huge...)
	tooHuge[11] = 1 // body: MaxBody + 1
	f.Add(tooHuge)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var fr Frame
		buf, n, err := ReadHead(r, &fr, nil)
		if (err == io.EOF) != (len(data) == 0) {
			t.Fatalf("%d bytes: err %v; a bare io.EOF belongs to the empty stream only", len(data), err)
		}
		if cap(buf) > 512 {
			t.Fatalf("head buffer grew to %d bytes", cap(buf))
		}
		if err != nil {
			return
		}
		if len(fr.Key) > MaxKeyLen || len(fr.Extras) > MaxExtrasLen || n < 0 || n > MaxBody {
			t.Fatalf("accepted key %d, extras %d, value %d", len(fr.Key), len(fr.Extras), n)
		}
		if consumed := len(data) - r.Len(); consumed != HeaderSize+len(fr.Extras)+len(fr.Key) {
			t.Fatalf("consumed %d bytes for a head of %d", consumed, HeaderSize+len(fr.Extras)+len(fr.Key))
		}
	})
}
