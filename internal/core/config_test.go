package core

import (
	"strings"
	"testing"
)

// TestConfigValidate is the table-driven contract for Config.Validate:
// zero values mean "use the default" and pass; explicit nonsense fails
// with an error naming the offending knob. Validation runs after
// defaulting, mirroring hdfs.Config.Validate.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" means valid
	}{
		{"zero value defaults", Config{}, ""},
		{"typical tuned config", Config{
			Servers: 2, ServerMemory: 4 << 30, BlockSize: 16 << 20,
			Flushers: 1, FlushBatchBlocks: 8, ReadAhead: 1,
		}, ""},
		{"negative servers", Config{Servers: -1}, "Servers"},
		{"negative server memory", Config{ServerMemory: -1}, "ServerMemory"},
		{"negative block size", Config{BlockSize: -1}, "BlockSize"},
		{"negative item chunk", Config{ItemChunk: -1}, "ItemChunk"},
		{"negative replicas", Config{BufferReplicas: -1}, "BufferReplicas"},
		{"negative flushers", Config{Flushers: -1}, "Flushers"},
		{"negative flush batch", Config{FlushBatchBlocks: -1}, "FlushBatchBlocks"},
		{"negative readahead", Config{ReadAhead: -1}, "ReadAhead"},
		{"unknown policy", Config{Policy: "bb-fast"}, "bb-adaptive"},
		{"memory cannot admit a block",
			Config{ServerMemory: 64 << 20, BlockSize: 128 << 20}, "cannot admit"},
		// 140 MiB holds a 128 MiB block, but 0.9 of it does not.
		{"watermark shrinks admittable memory",
			Config{ServerMemory: 140 << 20, BlockSize: 128 << 20},
			"cannot admit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewPanicsOnInvalidConfig pins that New refuses an invalid Config
// loudly instead of hanging later in the data plane.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a config whose memory cannot admit one block")
		}
	}()
	_ = newRig(2, Config{ServerMemory: 64 << 20, BlockSize: 128 << 20})
}
