package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestLedgerReleaseWithoutHold pins the ledger's faults: releasing a hold
// the block does not have, or taking a share it already holds, panics
// naming the block, its scheme and the share; a release that follows its
// take returns exactly what the take added.
func TestLedgerReleaseWithoutHold(t *testing.T) {
	rig := newRig(2, testCfg("bb-locality"))
	s0, s1 := rig.fs.servers[0], rig.fs.servers[1]
	dev := rig.c.Nodes[0].LocalDevices()[0]
	for _, tc := range []struct {
		name string
		run  func(b *bbBlock)
		want string // "" = no panic
	}{
		{"share never taken", func(b *bbBlock) { b.releaseShare(s0) }, "holds nothing on bbsrv0"},
		{"share released twice", func(b *bbBlock) {
			b.takeShare(s0, mib)
			b.releaseShare(s0)
			b.releaseShare(s0)
		}, "holds nothing on bbsrv0"},
		{"share taken elsewhere", func(b *bbBlock) {
			b.takeShare(s0, mib)
			b.releaseShare(s1)
		}, "holds nothing on bbsrv1"},
		{"share taken twice", func(b *bbBlock) {
			b.takeShare(s1, mib)
			b.takeShare(s1, mib)
		}, "already holds bbsrv1"},
		{"local never taken", func(b *bbBlock) { b.releaseLocal() }, "holds nothing on a local device"},
		{"local released twice", func(b *bbBlock) {
			if err := b.takeLocal(dev, mib); err != nil {
				t.Fatal(err)
			}
			b.releaseLocal()
			b.releaseLocal()
		}, "holds nothing on a local device"},
		{"slot never taken", func(b *bbBlock) { b.releaseOpen() }, "holds nothing on openBlocks"},
		{"every hold taken and released", func(b *bbBlock) {
			b.takeShare(s0, 3*mib)
			b.takeShare(s1, mib)
			if err := b.takeLocal(dev, 2*mib); err != nil {
				t.Fatal(err)
			}
			b.takeOpen()
			b.releaseShare(s1)
			b.releaseShare(s0)
			b.releaseLocal()
			b.releaseOpen()
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, s := range rig.fs.servers {
				s.bytes, s.holders = 5*mib, map[*bbBlock]struct{}{}
			}
			used, open := dev.Used(), rig.fs.openBlocks
			b := &bbBlock{id: 7, inst: rig.fs, localNode: -1}
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				tc.run(b)
				return ""
			}()
			if tc.want == "" {
				if msg != "" {
					t.Fatalf("panicked: %s", msg)
				}
				if s0.bytes != 5*mib || s1.bytes != 5*mib || dev.Used() != used || rig.fs.openBlocks != open {
					t.Errorf("after release: shares %d, %d bytes, device %d, openBlocks %d; want 5 MiB each, %d, %d",
						s0.bytes, s1.bytes, dev.Used(), rig.fs.openBlocks, used, open)
				}
				if len(b.held) != 0 || b.localDev != nil || b.open || len(s0.holders)+len(s1.holders) != 0 {
					t.Errorf("the record still lists holds: %+v", b)
				}
				return
			}
			if want := "core: block 7 (bb-locality) " + tc.want; !strings.Contains(msg, want) {
				t.Errorf("panic %q, want one naming %q", msg, want)
			}
		})
	}
}
