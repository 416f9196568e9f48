package mcclient

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
)

// waitFor polls cond until it holds; the tests wait on observable state,
// never on a fixed sleep.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// inFlight is the number of opaques the client is waiting on.
func inFlight(c *Client) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.pending)
}

// TestGroupCommitLoneCallerOneWritePerOp: a single caller on an idle connection must
// pay exactly one write per operation — no batching delay, no extra flush.
func TestGroupCommitLoneCallerOneWritePerOp(t *testing.T) {
	c, w := wireClient(t)
	const ops = 200
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%d", i%7)
		if i%2 == 0 {
			if _, err := c.Set(&Item{Key: key, Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := c.Get(fmt.Sprintf("k%d", (i-1)%7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.writes.Load(); got != ops {
		t.Fatalf("%d writes for %d sequential ops, want exactly one each", got, ops)
	}
	// A quiet burst is one operation and one write too.
	before := w.writes.Load()
	if _, err := c.GetMulti([]string{"k0", "k1", "k2", "nope"}); err != nil {
		t.Fatal(err)
	}
	if got := w.writes.Load() - before; got != 1 {
		t.Fatalf("GetMulti of 4 keys took %d writes, want 1", got)
	}
}

// TestGroupCommitConcurrentCallersShareWrites: 8 callers on one connection must need
// fewer writes than operations, and every reply must reach the caller that
// asked.
func TestGroupCommitConcurrentCallersShareWrites(t *testing.T) {
	c, w := wireClient(t)
	const callers = 8
	ops := 2000
	if testing.Short() {
		ops = 300
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("c%d-%d", g, i%11)
				val := fmt.Sprintf("%s#%d", key, i)
				if _, err := c.Set(&Item{Key: key, Value: []byte(val)}); err != nil {
					errs <- fmt.Errorf("set: %w", err)
					return
				}
				it, err := c.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if string(it.Value) != val {
					errs <- fmt.Errorf("get %s = %q, want %q: reply routed to the wrong caller", key, it.Value, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := int64(callers * ops * 2)
	if got := w.writes.Load(); got >= total {
		t.Fatalf("%d writes for %d ops from %d concurrent callers: nothing was combined", got, total, callers)
	} else {
		t.Logf("%d ops in %d writes (%.2f writes/op)", total, got, float64(got)/float64(total))
	}
}

// TestGroupCommitQueuedBehindFlush holds the flusher inside its
// write and issues five more operations — plain, quiet burst, stats stream
// — from one goroutine. They must queue without touching the socket, go
// out together in one write in issue order, and, with their replies then
// arriving in one burst for the reader to dispatch as a batch, each
// complete with its own result.
func TestGroupCommitQueuedBehindFlush(t *testing.T) {
	c, w := wireClient(t)
	if _, err := c.SetMulti([]*Item{{Key: "a", Value: []byte("A")}, {Key: "b", Value: []byte("B")}}); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.record = true
	w.mu.Unlock()
	entered, release := w.holdNextWrite(0, nil)
	lead := make(chan error, 1)
	go func() { lead <- c.Noop() }()
	<-entered
	writesBefore := w.writes.Load()

	set1 := c.IssueSet(&Item{Key: "c", Value: []byte("C")})
	del := c.IssueDelete("b")
	set2 := c.IssueSet(&Item{Key: "c", Value: []byte("C2")})
	type multi struct {
		items map[string]*Item
		stats map[string]string
		err   error
	}
	got := make(chan multi, 2)
	go func() {
		items, err := c.GetMulti([]string{"a", "missing", "c"})
		got <- multi{items: items, err: err}
	}()
	waitFor(t, "the quiet burst to queue", func() bool { return inFlight(c) == 1+3+4 })
	go func() {
		stats, err := c.Stats()
		got <- multi{stats: stats, err: err}
	}()
	waitFor(t, "the stats request to queue", func() bool { return inFlight(c) == 1+3+4+1 })
	if n := w.writes.Load() - writesBefore; n != 0 {
		t.Fatalf("%d writes reached the socket while a flush was in progress", n)
	}
	release()

	if err := <-lead; err != nil {
		t.Fatalf("leader's own op: %v", err)
	}
	if _, err := set1.Wait(); err != nil {
		t.Fatalf("set c: %v", err)
	}
	if _, err := del.Wait(); err != nil {
		t.Fatalf("delete b: %v", err)
	}
	if _, err := set2.Wait(); err != nil {
		t.Fatalf("set c again: %v", err)
	}
	for i := 0; i < 2; i++ {
		m := <-got
		switch {
		case m.err != nil:
			t.Fatal(m.err)
		case m.items != nil:
			if len(m.items) != 2 || string(m.items["a"].Value) != "A" || string(m.items["c"].Value) != "C2" {
				t.Errorf("GetMulti = %v, want a=A and c=C2 (the later of the two queued sets)", m.items)
			}
		default:
			if m.stats["cmd_set"] == "" {
				t.Errorf("stats stream lost its entries: %v", m.stats)
			}
		}
	}
	if n := w.writes.Load() - writesBefore; n != 2 {
		t.Errorf("leader's frame plus five queued operations took %d writes, want 2", n)
	}
	var order []string
	for _, f := range w.requests(t) {
		order = append(order, fmt.Sprintf("%s %s", f.Op, f.Key))
	}
	want := []string{"NOOP ", "SET c", "DELETE b", "SET c", "GETQ a", "GETQ missing", "GETQ c", "NOOP ", "STAT "}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("wire order %q, want issue order %q", order, want)
	}
	if n := inFlight(c); n != 0 {
		t.Errorf("%d opaques still pending after every call completed", n)
	}
}

// TestGroupCommitLeaderWriteFailure: when the flusher's write fails,
// every operation queued behind it completes at once with the same typed
// connection error — none hangs on a reply that cannot come — and with a
// reconnect policy the client then serves new operations again.
func TestGroupCommitLeaderWriteFailure(t *testing.T) {
	c, w := wireClient(t, WithReconnect(ReconnectPolicy{
		MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}))
	boom := errors.New("injected write failure")
	entered, release := w.holdNextWrite(0, boom)
	lead := make(chan error, 1)
	go func() { lead <- c.Noop() }()
	<-entered

	const followers = 6
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			switch i % 3 {
			case 0:
				_, err := c.Get("k")
				errs <- err
			case 1:
				_, err := c.SetMulti([]*Item{{Key: "x", Value: []byte("1")}, {Key: "y", Value: []byte("2")}})
				errs <- err
			default:
				_, err := c.Stats()
				errs <- err
			}
		}(i)
	}
	// 1 leader opaque + 2 gets + 2 bursts of 3 + 2 stats.
	waitFor(t, "the followers to queue", func() bool { return inFlight(c) == 1+2+6+2 })
	release()

	leadErr := <-lead
	var ce *ConnError
	if !errors.As(leadErr, &ce) || !errors.Is(leadErr, boom) || ce.Permanent {
		t.Fatalf("leader error = %v, want a transient *ConnError wrapping the write failure", leadErr)
	}
	for i := 0; i < followers; i++ {
		select {
		case err := <-errs:
			if err != leadErr {
				t.Errorf("follower error = %v, want the leader's %v", err, leadErr)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a follower queued behind the failed flush never completed")
		}
	}
	// The redial goes to the real server behind the wrapper.
	waitFor(t, "the client to reconnect", func() bool {
		_, err := c.Set(&Item{Key: "after", Value: []byte("ok")})
		return err == nil
	})
	if it, err := c.Get("after"); err != nil || string(it.Value) != "ok" {
		t.Fatalf("get after reconnect: %v %v", it, err)
	}
	if n := inFlight(c); n != 0 {
		t.Errorf("%d opaques pending on the fresh connection", n)
	}
}

// TestGroupCommitLargeValueOwnership pins the ownership rule for values
// written in place: a follower's large value rides in the flusher's write,
// so when the connection dies under that write the follower must not get
// its buffer back until the write has returned. The wireConn reads the
// bytes after the stall, and the follower scribbles on its value as soon as
// its call completes, so under -race an early completion is a report.
func TestGroupCommitLargeValueOwnership(t *testing.T) {
	c, w := wireClient(t)
	// Hold the flusher in the write of its own frame, queue the large value
	// behind it, then hold it again in the write that carries the value.
	entered, release := w.holdNextWrite(0, nil)
	lead := make(chan error, 1)
	go func() { lead <- c.Noop() }()
	<-entered
	value := bytes.Repeat([]byte{7}, 3*memcached.InlineValue)
	call := c.IssueSet(&Item{Key: "big", Value: value})
	entered2, release2 := w.holdNextWrite(len(value), errors.New("connection died mid-write"))
	release()
	<-entered2 // the flusher now holds the follower's value in a stalled write

	done := make(chan error, 1)
	go func() {
		_, err := call.Wait()
		for i := range value {
			value[i] = 9 // the caller reuses its buffer the moment it may
		}
		done <- err
	}()
	// The reader notices the dead connection while the write is stalled.
	c.failAll(0, errors.New("read side saw the connection die"))
	select {
	case err := <-done:
		t.Fatalf("follower completed (%v) while its value was still being written", err)
	case <-time.After(20 * time.Millisecond):
	}
	release2()
	if err := <-done; !IsConnError(err) {
		t.Fatalf("follower error = %v, want a *ConnError", err)
	}
	<-lead
}

// TestGroupCommitRejectedFrameLeavesNoTrace: a request that does not encode
// (key over the protocol limit) fails alone. Nothing of it — or of the
// burst it was part of — reaches the shared queue, and the connection keeps
// serving the other callers.
func TestGroupCommitRejectedFrameLeavesNoTrace(t *testing.T) {
	c, w := wireClient(t)
	w.mu.Lock()
	w.record = true
	w.mu.Unlock()
	long := string(bytes.Repeat([]byte{'k'}, binproto.MaxKeyLen+1))
	if _, err := c.Get(long); !errors.Is(err, binproto.ErrKeyTooLong) {
		t.Fatalf("get with an oversized key: %v, want ErrKeyTooLong", err)
	}
	big := bytes.Repeat([]byte{1}, 2*memcached.InlineValue)
	if _, err := c.SetMulti([]*Item{{Key: "ok", Value: big}, {Key: long, Value: big}}); !errors.Is(err, binproto.ErrKeyTooLong) {
		t.Fatalf("burst with an oversized key: %v, want ErrKeyTooLong", err)
	}
	if n := inFlight(c); n != 0 {
		t.Fatalf("%d opaques pending after two rejected operations", n)
	}
	if _, err := c.Set(&Item{Key: "ok", Value: []byte("v")}); err != nil {
		t.Fatalf("set after rejected operations: %v", err)
	}
	if _, err := c.Get("ok"); err != nil {
		t.Fatalf("get after rejected operations: %v", err)
	}
	var sent []string
	for _, f := range w.requests(t) {
		sent = append(sent, fmt.Sprintf("%s %s", f.Op, f.Key))
	}
	if want := []string{"SET ok", "GET ok"}; fmt.Sprint(sent) != fmt.Sprint(want) {
		t.Errorf("wire saw %q, want only %q", sent, want)
	}
}
