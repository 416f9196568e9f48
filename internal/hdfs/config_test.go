package hdfs

import (
	"strings"
	"testing"

	"hbb/internal/cluster"
	"hbb/internal/netsim"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" for valid
	}{
		{"zero value uses defaults", Config{}, ""},
		{"explicit sane values", Config{BlockSize: 64 << 20, PacketSize: 1 << 20}, ""},
		{"negative PacketSize", Config{PacketSize: -1}, "PacketSize"},
		{"negative BlockSize", Config{BlockSize: -1 << 20}, "BlockSize"},
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
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 3, Transport: netsim.IPoIB, Seed: 1})
	if _, err := New(c, Config{PacketSize: -1}); err == nil {
		t.Fatal("New accepted a negative PacketSize")
	}
}
