package binproto

import (
	"bytes"
	"io"
	"testing"
)

// benchFrame is a typical SET request: 8-byte extras, short key, 256-byte
// value.
func benchFrame() *Frame {
	return &Frame{
		Magic:  MagicRequest,
		Op:     OpSet,
		Opaque: 7,
		CAS:    42,
		Extras: SetExtras(3, 60),
		Key:    []byte("bench-key-000001"),
		Value:  bytes.Repeat([]byte{0xab}, 256),
	}
}

// BenchmarkWriteFrame measures the pooled single-write encode path; the
// interesting number is allocs/op (0 after the scratch pool warms up).
func BenchmarkWriteFrame(b *testing.B) {
	f := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrame measures raw encode cost into a reused buffer.
func BenchmarkAppendFrame(b *testing.B) {
	f := benchFrame()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], f)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrame measures decode with a reused frame and body buffer —
// the server's per-request read path. allocs/op should be 0.
func BenchmarkReadFrame(b *testing.B) {
	var wire bytes.Buffer
	if err := Write(&wire, benchFrame()); err != nil {
		b.Fatal(err)
	}
	raw := wire.Bytes()
	var f Frame
	var buf []byte
	rd := bytes.NewReader(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		var err error
		buf, err = ReadFrame(rd, &f, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendExtras covers the fixed-size extras encoders feeding a
// reused scratch buffer (previously 8/4/20-byte allocations per op).
func BenchmarkAppendExtras(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendSetExtras(buf[:0], 1, 2)
		buf = AppendGetExtras(buf, 3)
		buf = AppendCounterExtras(buf, 4, 5, 6)
		buf = AppendCounterValue(buf, 7)
	}
}
