package mccluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached/mcclient"
)

// TestClusterFailoverStress is the durability gauntlet from ISSUE.md: 3
// servers, R=2, concurrent writers and readers over real sockets, one
// server killed mid-load. The invariants:
//
//  1. no acknowledged SET is ever lost — every acked key reads back with
//     its exact value while the server is down;
//  2. after the dead server restarts (empty, as a crashed process would)
//     an anti-entropy RepairKeys pass restores every key it owns, verified
//     against that server's engine directly.
//
// The name carries "Stress" so `make stress` picks it up under -race.
func TestClusterFailoverStress(t *testing.T) {
	l, c := launch(t, 3, Options{
		Replicas:     2,
		noFrontCache: true, // reads must hit sockets, not a local cache
		noReadSpread: true,
		reconnect: mcclient.ReconnectPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		},
		redialCooldown: 20 * time.Millisecond,
	})

	const (
		writers        = 4
		writesPerPhase = 150 // per writer, before and again after the kill
	)
	victim := 1

	// Each writer owns a disjoint key range, so "acked" tracking is a
	// plain per-writer slice merged at the end.
	acked := make([][]string, writers)
	phase := func(p int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < writesPerPhase; i++ {
					key := fmt.Sprintf("w%d-p%d-%d", w, p, i)
					if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("val:" + key)}); err != nil {
						continue // not acked: allowed to vanish
					}
					acked[w] = append(acked[w], key)
					// Read-back pressure on a key we know is durable.
					if len(acked[w]) > 1 && i%3 == 0 {
						prev := acked[w][len(acked[w])-2]
						if it, err := c.Get(prev); err == nil && string(it.Value) != "val:"+prev {
							t.Errorf("torn read %s: %q", prev, it.Value)
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}

	phase(0)
	l.Kill(victim) // mid-load crash: half the writes land before, half after
	phase(1)

	var all []string
	for _, ks := range acked[:] {
		all = append(all, ks...)
	}
	if len(all) < writers*writesPerPhase { // phase 0 must fully ack (no failures yet)
		t.Fatalf("only %d acked writes, want >= %d", len(all), writers*writesPerPhase)
	}
	t.Logf("acked %d writes across kill of server %d", len(all), victim)

	// Invariant 1: with one of three servers down and R=2, every acked key
	// still has a live replica. Retry per key briefly — the client may
	// need a failover round trip to learn the victim is gone.
	for _, key := range all {
		var it *mcclient.Item
		var err error
		deadline := time.Now().Add(5 * time.Second)
		for {
			if it, err = c.Get(key); err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("acked write %s lost after kill: %v", key, err)
		}
		if string(it.Value) != "val:"+key {
			t.Fatalf("acked write %s corrupted: %q", key, it.Value)
		}
	}

	// Invariant 2: restart empty, run anti-entropy until the victim's share
	// of the keyspace is back on its own disk-less engine. The first pass
	// can land inside the node's redial cooldown (the victim was just
	// declared dead) and skip it as unreachable, so drive RepairKeys the
	// way an operator would: repeat until converged.
	if err := l.Restart(victim); err != nil {
		t.Fatal(err)
	}
	victimAddr := l.Addrs()[victim]
	var ownedKeys []string
	for _, key := range all {
		for _, a := range c.ReplicasFor(key) {
			if a == victimAddr {
				ownedKeys = append(ownedKeys, key)
				break
			}
		}
	}
	if len(ownedKeys) == 0 {
		t.Fatal("victim owned no keys — test proves nothing")
	}
	var totalRepaired int
	deadline := time.Now().Add(15 * time.Second)
	for {
		repaired, err := c.RepairKeys(all)
		if err != nil {
			t.Fatalf("RepairKeys: %v", err)
		}
		totalRepaired += repaired
		missing := 0
		for _, key := range ownedKeys {
			if !serverHas(l, victim, key) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted server still missing %d of %d owned keys (RepairKeys touched %d total)",
				missing, len(ownedKeys), totalRepaired)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("restart+repair: %d keys owned by victim all restored (RepairKeys touched %d)",
		len(ownedKeys), totalRepaired)
	if totalRepaired < len(ownedKeys) {
		t.Fatalf("RepairKeys repaired %d, but victim alone was missing %d", totalRepaired, len(ownedKeys))
	}

	st := c.Stats()
	if st.Failovers == 0 {
		t.Errorf("stress run recorded no failovers: %+v", st)
	}
	if st.Repairs == 0 {
		t.Errorf("stress run recorded no repairs: %+v", st)
	}
}

// TestClusterConcurrentMixedLoad hammers one cluster from many goroutines
// mixing sets, gets, deletes, and multi-ops with all features on (front
// cache, spreading, repair, admission) — the race detector's playground.
func TestClusterConcurrentMixedLoad(t *testing.T) {
	_, c := launch(t, 3, Options{
		Replicas:    2,
		hotMinHits:  4,
		MaxInflight: 256,
	})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// A small shared hot set plus private cold keys.
				hot := fmt.Sprintf("shared-%d", i%4)
				cold := fmt.Sprintf("g%d-%d", g, i)
				switch i % 5 {
				case 0:
					c.Set(&mcclient.Item{Key: hot, Value: []byte("h")})
				case 1:
					c.Set(&mcclient.Item{Key: cold, Value: []byte("c")})
				case 2:
					c.Get(hot)
					c.Get(hot)
				case 3:
					c.GetMulti([]string{hot, cold, "absent"})
				case 4:
					c.Delete(cold)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatalf("load didn't run: %+v", st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight leaked: %d", st.Inflight)
	}
}
