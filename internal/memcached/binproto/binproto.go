// Package binproto implements the memcached binary protocol wire format:
// 24-byte headers, request/response framing, opcode and status constants,
// and typed encoders/decoders for the commands the engine supports. It is
// transport-agnostic — it reads from io.Reader and writes to io.Writer —
// and is shared by the TCP server (mcserver) and client (mcclient).
package binproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hbb/internal/memcached"
)

// Magic bytes.
const (
	MagicRequest  = 0x80
	MagicResponse = 0x81
)

// Opcode identifies a command.
type Opcode uint8

// Binary protocol opcodes (the subset this implementation speaks).
const (
	OpGet       Opcode = 0x00
	OpSet       Opcode = 0x01
	OpAdd       Opcode = 0x02
	OpReplace   Opcode = 0x03
	OpDelete    Opcode = 0x04
	OpIncrement Opcode = 0x05
	OpDecrement Opcode = 0x06
	OpQuit      Opcode = 0x07
	OpFlush     Opcode = 0x08
	OpGetQ      Opcode = 0x09
	OpNoop      Opcode = 0x0a
	OpVersion   Opcode = 0x0b
	OpStat      Opcode = 0x10
	OpSetQ      Opcode = 0x11
	OpTouch     Opcode = 0x1c
)

// Quiet reports whether the opcode is a quiet variant: the server stays
// silent on GETQ misses and SETQ successes, so clients batch runs of quiet
// ops and collect what did answer behind a trailing NOOP.
func (o Opcode) Quiet() bool { return o == OpGetQ || o == OpSetQ }

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpAdd:
		return "ADD"
	case OpReplace:
		return "REPLACE"
	case OpDelete:
		return "DELETE"
	case OpIncrement:
		return "INCR"
	case OpDecrement:
		return "DECR"
	case OpQuit:
		return "QUIT"
	case OpFlush:
		return "FLUSH"
	case OpGetQ:
		return "GETQ"
	case OpSetQ:
		return "SETQ"
	case OpNoop:
		return "NOOP"
	case OpVersion:
		return "VERSION"
	case OpStat:
		return "STAT"
	case OpTouch:
		return "TOUCH"
	default:
		return fmt.Sprintf("OP(0x%02x)", uint8(o))
	}
}

// Status is a response status code.
type Status uint16

// Binary protocol status codes.
const (
	StatusOK             Status = 0x0000
	StatusKeyNotFound    Status = 0x0001
	StatusKeyExists      Status = 0x0002
	StatusValueTooLarge  Status = 0x0003
	StatusInvalidArgs    Status = 0x0004
	StatusItemNotStored  Status = 0x0005
	StatusNonNumeric     Status = 0x0006
	StatusUnknownCommand Status = 0x0081
	StatusOutOfMemory    Status = 0x0082
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusKeyNotFound:
		return "key not found"
	case StatusKeyExists:
		return "key exists"
	case StatusValueTooLarge:
		return "value too large"
	case StatusInvalidArgs:
		return "invalid arguments"
	case StatusItemNotStored:
		return "item not stored"
	case StatusNonNumeric:
		return "non-numeric value"
	case StatusUnknownCommand:
		return "unknown command"
	case StatusOutOfMemory:
		return "out of memory"
	default:
		return fmt.Sprintf("status(0x%04x)", uint16(s))
	}
}

// HeaderSize is the fixed frame header length.
const HeaderSize = 24

// MaxBody caps a frame body to guard against corrupt length fields.
const MaxBody = 64 << 20

// MaxKeyLen caps a key, matching memcached's 250-byte limit. The wire
// format would allow 64 KiB, but accepting that lets one malformed header
// drive outsized allocations, so both Read and Write reject beyond the cap.
const MaxKeyLen = 250

// MaxExtrasLen caps the extras section. The longest extras any defined
// opcode carries is the 20-byte INCR/DECR block.
const MaxExtrasLen = 20

// ErrBadMagic reports a frame that does not start with a known magic byte.
var ErrBadMagic = errors.New("binproto: bad magic byte")

// ErrFrameTooLarge reports a body length beyond MaxBody.
var ErrFrameTooLarge = errors.New("binproto: frame body too large")

// ErrKeyTooLong reports a key length beyond MaxKeyLen.
var ErrKeyTooLong = errors.New("binproto: key too long")

// ErrExtrasTooLong reports an extras length beyond MaxExtrasLen.
var ErrExtrasTooLong = errors.New("binproto: extras too long")

// Frame is a decoded request or response.
type Frame struct {
	Magic  uint8
	Op     Opcode
	Status Status // responses only (requests use it as vbucket; we keep 0)
	Opaque uint32
	CAS    uint64
	Extras []byte
	Key    []byte
	Value  []byte
}

// Request reports whether the frame is a request.
func (f *Frame) Request() bool { return f.Magic == MagicRequest }

// validate checks the outbound frame's section lengths.
func (f *Frame) validate() error {
	if len(f.Key) > MaxKeyLen {
		return fmt.Errorf("%w (%d > %d)", ErrKeyTooLong, len(f.Key), MaxKeyLen)
	}
	if len(f.Extras) > MaxExtrasLen {
		return fmt.Errorf("%w (%d > %d)", ErrExtrasTooLong, len(f.Extras), MaxExtrasLen)
	}
	if len(f.Extras)+len(f.Key)+len(f.Value) > MaxBody {
		return ErrFrameTooLarge
	}
	return nil
}

// appendHeader appends the 24-byte header followed by extras and key —
// everything except the value — to dst.
func appendHeader(dst []byte, f *Frame) []byte {
	body := len(f.Extras) + len(f.Key) + len(f.Value)
	var h [HeaderSize]byte
	h[0] = f.Magic
	h[1] = uint8(f.Op)
	binary.BigEndian.PutUint16(h[2:4], uint16(len(f.Key)))
	h[4] = uint8(len(f.Extras))
	h[5] = 0 // data type
	binary.BigEndian.PutUint16(h[6:8], uint16(f.Status))
	binary.BigEndian.PutUint32(h[8:12], uint32(body))
	binary.BigEndian.PutUint32(h[12:16], f.Opaque)
	binary.BigEndian.PutUint64(h[16:24], f.CAS)
	dst = append(dst, h[:]...)
	dst = append(dst, f.Extras...)
	return append(dst, f.Key...)
}

// AppendHeader appends f's wire encoding up to but not including the value:
// the header (whose body length does count the value), extras and key. A
// sender that queues frames uses it to leave a large value in the caller's
// buffer and send it behind the prefix instead of copying it. Nothing is
// appended when f does not validate.
func AppendHeader(dst []byte, f *Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return dst, err
	}
	return appendHeader(dst, f), nil
}

// AppendFrame appends the complete wire encoding of f to dst and returns
// the extended slice. It allocates only when dst lacks capacity.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	dst, err := AppendHeader(dst, f)
	if err != nil {
		return dst, err
	}
	return append(dst, f.Value...), nil
}

// scratchPool recycles encode buffers sized for a full small frame.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, HeaderSize+MaxExtrasLen+MaxKeyLen+memcached.InlineValue)
		return &b
	},
}

// Write encodes the frame to w. Small frames (value <= memcached.InlineValue)
// are gathered into one pooled buffer and issued as a single Write; larger
// frames send the pooled header+extras+key prefix and the value as one
// vectored write (writev when w is a net.Conn), so the value bytes are
// never copied.
func Write(w io.Writer, f *Frame) error {
	if err := f.validate(); err != nil {
		return err
	}
	sp := scratchPool.Get().(*[]byte)
	buf := appendHeader((*sp)[:0], f)
	var err error
	if len(f.Value) <= memcached.InlineValue {
		buf = append(buf, f.Value...)
		_, err = w.Write(buf)
	} else {
		bufs := net.Buffers{buf, f.Value}
		_, err = bufs.WriteTo(w)
	}
	*sp = buf[:0]
	scratchPool.Put(sp)
	return err
}

func checkMagic(b byte) error {
	if b != MagicRequest && b != MagicResponse {
		return fmt.Errorf("%w: 0x%02x", ErrBadMagic, b)
	}
	return nil
}

// parseHeader decodes the 24-byte header h, whose magic the caller has
// checked, into f (whose body sections stay empty) and returns the validated
// section lengths.
func parseHeader(h []byte, f *Frame) (extLen, keyLen, bodyLen int, err error) {
	*f = Frame{
		Magic:  h[0],
		Op:     Opcode(h[1]),
		Status: Status(binary.BigEndian.Uint16(h[6:8])),
		Opaque: binary.BigEndian.Uint32(h[12:16]),
		CAS:    binary.BigEndian.Uint64(h[16:24]),
	}
	keyLen = int(binary.BigEndian.Uint16(h[2:4]))
	extLen = int(h[4])
	bodyLen = int(binary.BigEndian.Uint32(h[8:12]))
	switch {
	case bodyLen > MaxBody:
		err = ErrFrameTooLarge
	case keyLen > MaxKeyLen:
		err = fmt.Errorf("%w (%d > %d)", ErrKeyTooLong, keyLen, MaxKeyLen)
	case extLen > MaxExtrasLen:
		err = fmt.Errorf("%w (%d > %d)", ErrExtrasTooLong, extLen, MaxExtrasLen)
	case bodyLen < keyLen+extLen:
		err = fmt.Errorf("binproto: body %d shorter than key %d + extras %d", bodyLen, keyLen, extLen)
	}
	return extLen, keyLen, bodyLen, err
}

// ReadFrame decodes one frame from r into f, using buf as body storage and
// returning the (possibly grown) buffer for reuse. On success f's Extras,
// Key, and Value alias the returned buffer, so they are valid only until
// the next ReadFrame call that reuses it; callers that retain frame bytes
// must copy them out (mcserver's engine store path does).
func ReadFrame(r io.Reader, f *Frame, buf []byte) ([]byte, error) {
	buf, extLen, keyLen, bodyLen, err := readHeader(r, f, buf)
	if err != nil {
		return buf, err
	}
	if cap(buf) < bodyLen {
		buf = make([]byte, bodyLen)
	} else {
		buf = buf[:bodyLen]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	f.Extras = buf[:extLen]
	f.Key = buf[extLen : extLen+keyLen]
	f.Value = buf[extLen+keyLen : bodyLen]
	return buf, nil
}

// readHeader reads one frame's header from r and decodes it into f. The
// header is staged in the reusable buffer (not a stack array, which would
// escape through io.ReadFull and cost an allocation per frame); every
// header field is in f before the body read overwrites it.
func readHeader(r io.Reader, f *Frame, buf []byte) (_ []byte, extLen, keyLen, bodyLen int, err error) {
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize, 512)
	}
	h := buf[:HeaderSize]
	// A peer that is not speaking the protocol is found out by its first
	// byte, not after 24 of them.
	n, err := io.ReadAtLeast(r, h, 1)
	if err != nil {
		return buf, 0, 0, 0, err
	}
	if err := checkMagic(h[0]); err != nil {
		return buf, 0, 0, 0, err
	}
	if err := readRest(r, h[n:]); err != nil {
		return buf, 0, 0, 0, err
	}
	extLen, keyLen, bodyLen, err = parseHeader(h, f)
	return buf, extLen, keyLen, bodyLen, err
}

// readRest fills b with bytes that continue a frame already begun, where
// the end of the stream is an error: io.EOF stays bare only between frames.
func readRest(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// ReadHead is ReadFrame up to the value: it decodes the header, extras and
// key of one frame into f (aliasing the returned buffer, which is never
// grown beyond 512 bytes) and returns the length of the value, which is
// still in r. The caller decides where those bytes go
// — io.ReadFull into storage picked by what the head says, or Discard —
// and must consume exactly that many before the next frame. A server reads
// requests this way: nothing is allocated at a length a peer declared, and
// a value lands where it will stay.
func ReadHead(r io.Reader, f *Frame, buf []byte) (_ []byte, valueLen int, err error) {
	buf, extLen, keyLen, bodyLen, err := readHeader(r, f, buf)
	if err != nil {
		return buf, 0, err
	}
	if cap(buf) < extLen+keyLen {
		buf = make([]byte, extLen+keyLen, MaxExtrasLen+MaxKeyLen)
	} else {
		buf = buf[:extLen+keyLen]
	}
	if err := readRest(r, buf); err != nil {
		return buf, 0, err
	}
	f.Extras, f.Key = buf[:extLen], buf[extLen:]
	return buf, bodyLen - extLen - keyLen, nil
}

// Buffered reports whether r already holds one complete frame, so that the
// next ReadBuffered returns without touching the underlying reader. A reader that
// must not block uses it to drain what one socket read delivered.
func Buffered(r *bufio.Reader) bool {
	if r.Buffered() < HeaderSize {
		return false
	}
	h, _ := r.Peek(HeaderSize)
	return uint64(r.Buffered()-HeaderSize) >= uint64(binary.BigEndian.Uint32(h[8:12]))
}

// ReadBuffered decodes one frame from r into f. The header is parsed in
// place in r's buffer and f owns its body, allocated at its exact size (not
// at all when the body is empty) — what a client wants, which hands the
// value on to its caller and so can reuse neither a body buffer, as
// ReadFrame does, nor afford Read's staging buffer per response.
func ReadBuffered(r *bufio.Reader, f *Frame) error {
	h, err := r.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(h) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := checkMagic(h[0]); err != nil {
		return err
	}
	extLen, keyLen, bodyLen, err := parseHeader(h, f)
	if err != nil {
		return err
	}
	r.Discard(HeaderSize) // cannot fail: Peek has buffered that much
	if bodyLen == 0 {
		return nil
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	f.Extras, f.Key, f.Value = body[:extLen], body[extLen:extLen+keyLen], body[extLen+keyLen:]
	return nil
}

// Read decodes one frame from r. The returned frame owns its body bytes;
// the hot paths use ReadFrame with a reused buffer instead.
func Read(r io.Reader) (*Frame, error) {
	f := &Frame{}
	if _, err := ReadFrame(r, f, nil); err != nil {
		return nil, err
	}
	return f, nil
}

// AppendSetExtras appends the flags+expiry extras of SET/ADD/REPLACE to b.
// The Append* codecs let callers reuse a per-connection scratch buffer
// instead of allocating the 8/4/20-byte extras on every op.
func AppendSetExtras(b []byte, flags uint32, expiry uint32) []byte {
	var e [8]byte
	binary.BigEndian.PutUint32(e[0:4], flags)
	binary.BigEndian.PutUint32(e[4:8], expiry)
	return append(b, e[:]...)
}

// SetExtras packs the flags+expiry extras of SET/ADD/REPLACE.
func SetExtras(flags uint32, expiry uint32) []byte {
	return AppendSetExtras(make([]byte, 0, 8), flags, expiry)
}

// ParseSetExtras unpacks SET/ADD/REPLACE extras.
func ParseSetExtras(extras []byte) (flags, expiry uint32, err error) {
	if len(extras) != 8 {
		return 0, 0, fmt.Errorf("binproto: set extras length %d, want 8", len(extras))
	}
	return binary.BigEndian.Uint32(extras[0:4]), binary.BigEndian.Uint32(extras[4:8]), nil
}

// AppendGetExtras appends the flags extras of a GET response to b.
func AppendGetExtras(b []byte, flags uint32) []byte {
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], flags)
	return append(b, e[:]...)
}

// GetExtras packs the flags extras of a GET response.
func GetExtras(flags uint32) []byte {
	return AppendGetExtras(make([]byte, 0, 4), flags)
}

// ParseGetExtras unpacks a GET response's extras.
func ParseGetExtras(extras []byte) (flags uint32, err error) {
	if len(extras) != 4 {
		return 0, fmt.Errorf("binproto: get extras length %d, want 4", len(extras))
	}
	return binary.BigEndian.Uint32(extras), nil
}

// AppendCounterExtras appends the delta+initial+expiry extras of INCR/DECR
// to b.
func AppendCounterExtras(b []byte, delta, initial uint64, expiry uint32) []byte {
	var e [20]byte
	binary.BigEndian.PutUint64(e[0:8], delta)
	binary.BigEndian.PutUint64(e[8:16], initial)
	binary.BigEndian.PutUint32(e[16:20], expiry)
	return append(b, e[:]...)
}

// CounterExtras packs the delta+initial+expiry extras of INCR/DECR.
// expiry 0xffffffff means "fail if absent" per the protocol.
func CounterExtras(delta, initial uint64, expiry uint32) []byte {
	return AppendCounterExtras(make([]byte, 0, 20), delta, initial, expiry)
}

// ParseCounterExtras unpacks INCR/DECR extras.
func ParseCounterExtras(extras []byte) (delta, initial uint64, expiry uint32, err error) {
	if len(extras) != 20 {
		return 0, 0, 0, fmt.Errorf("binproto: counter extras length %d, want 20", len(extras))
	}
	return binary.BigEndian.Uint64(extras[0:8]),
		binary.BigEndian.Uint64(extras[8:16]),
		binary.BigEndian.Uint32(extras[16:20]), nil
}

// AppendTouchExtras appends the expiry extras of TOUCH to b.
func AppendTouchExtras(b []byte, expiry uint32) []byte {
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], expiry)
	return append(b, e[:]...)
}

// TouchExtras packs the expiry extras of TOUCH (and optionally FLUSH).
func TouchExtras(expiry uint32) []byte {
	return AppendTouchExtras(make([]byte, 0, 4), expiry)
}

// ParseTouchExtras unpacks TOUCH extras.
func ParseTouchExtras(extras []byte) (expiry uint32, err error) {
	if len(extras) != 4 {
		return 0, fmt.Errorf("binproto: touch extras length %d, want 4", len(extras))
	}
	return binary.BigEndian.Uint32(extras), nil
}

// AppendCounterValue appends the 8-byte response value of INCR/DECR to b.
func AppendCounterValue(b []byte, v uint64) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], v)
	return append(b, e[:]...)
}

// CounterValue encodes the 8-byte response value of INCR/DECR.
func CounterValue(v uint64) []byte {
	return AppendCounterValue(make([]byte, 0, 8), v)
}

// ParseCounterValue decodes an INCR/DECR response value.
func ParseCounterValue(v []byte) (uint64, error) {
	if len(v) != 8 {
		return 0, fmt.Errorf("binproto: counter value length %d, want 8", len(v))
	}
	return binary.BigEndian.Uint64(v), nil
}
