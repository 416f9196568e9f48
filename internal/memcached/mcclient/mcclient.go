// Package mcclient is a pipelined memcached binary protocol client for a
// single server connection. It pairs with mcserver but speaks the standard
// protocol, so it also works against a stock memcached running in binary
// mode.
//
// The client is safe for concurrent use and does not serialize round-trips.
// Every operation takes the same path onto the wire: the caller encodes its
// frames into the connection's queue under a short lock and, when no flush
// is in progress, becomes the flusher — it writes everything queued in one
// write with the lock released, and keeps doing so while callers that
// arrived meanwhile have queued more. Those callers only enqueue and wait
// for their replies (group commit), so a burst from many goroutines costs
// one write, and no path holds the lock across a socket write. A flusher
// that finds other operations already in flight yields the processor once
// before it writes, which lets the callers that are about to issue join its
// write; a lone caller on an idle connection writes at once.
//
// A dedicated reader goroutine matches replies to calls in issue order, the
// order the protocol answers in, checks each reply's opaque against the
// call it answers before it reads the reply's value, and wakes a caller as
// soon as its call is answered, so up to DefaultWindow operations can be on
// the wire at once. A reply costs memory only as its bytes arrive. GetMulti
// and SetMulti batch many keys into a single quiet-op burst (GETQ/SETQ …
// NOOP) costing one round-trip total; IssueSet, IssueDelete and
// IssueGetMulti split a round-trip into its issue and its wait, so one
// goroutine can have operations in flight on several connections at once.
package mcclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
)

// DefaultWindow is the cap on concurrently in-flight operations per
// connection. Each GetMulti/SetMulti/Stats counts as one.
const DefaultWindow = 128

// ErrClosed is returned for operations on a closed client.
var ErrClosed = errors.New("mcclient: client closed")

// ConnError is the typed error for connection-level failures: the socket
// died (or never came up) rather than the server answering with a protocol
// status. Callers holding replicas — the cluster client — match on it to
// retry the operation elsewhere instead of surfacing the failure.
// Permanent is set once the client will never recover on its own: it was
// explicitly closed, or its bounded reconnect attempts are exhausted.
type ConnError struct {
	Addr      string
	Permanent bool
	Err       error
}

// Error implements error.
func (e *ConnError) Error() string {
	state := "transient"
	if e.Permanent {
		state = "permanent"
	}
	return fmt.Sprintf("mcclient: connection to %s failed (%s): %v", e.Addr, state, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ConnError) Unwrap() error { return e.Err }

// IsConnError reports whether err is a connection-level failure (as
// opposed to a protocol status), meaning the operation may have never
// reached the server and is safe to retry on a replica.
func IsConnError(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}

// IsPermanent reports whether err is a connection failure the client will
// not recover from by itself (closed, or reconnect attempts exhausted).
func IsPermanent(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce) && ce.Permanent
}

// ReconnectPolicy bounds the transparent reconnect a client performs after
// an established connection drops. A positive MaxAttempts needs positive
// delays; zero or negative MaxAttempts disables reconnect (the
// pre-reconnect sticky-error behaviour). mccluster holds the policy its
// connections use.
type ReconnectPolicy struct {
	// MaxAttempts caps redial attempts per outage; when exhausted the
	// client fails permanently.
	MaxAttempts int
	// BaseDelay is the first backoff step. Each attempt doubles it,
	// jittered uniformly in [0.5d, 1.5d).
	BaseDelay time.Duration
	// MaxDelay caps the backoff step.
	MaxDelay time.Duration
}

// Client is a connection to one memcached server.
type Client struct {
	// window holds one slot per operation on the wire: taken when the
	// operation is issued, given back by whoever completes it (the reader
	// or a connection failure), so a goroutine with operations issued on
	// several connections never holds a slot while it waits for another.
	window chan struct{}

	addr   string        // redial target; "" when built from NewClient
	dialTO time.Duration // per-attempt dial timeout
	policy ReconnectPolicy

	// wmu guards everything below. It is never held across a socket write.
	wmu    sync.Mutex
	conn   net.Conn
	gen    int // connection generation; stale failures are ignored
	opaque uint32
	calls  ring  // the calls on the wire, oldest first
	err    error // sticky per outage; cleared on successful reconnect
	closed bool  // explicit Close: never reconnect again

	// Group commit: callers encode into out; the one flusher (flushing)
	// takes it, leaves spare in its place and writes with wmu released.
	// While flushing is set a connection failure only poisons the client
	// (err) and closes conn; the flusher runs drain when its write returns.
	out, spare *outbuf
	flushing   bool
}

// maxEncKeep is the largest encode buffer kept for reuse after a flush.
const maxEncKeep = 64 << 10

// ring holds the n calls on the wire in issue order, the i-th oldest at
// at(i). Every call in it holds a window slot, so it never overflows.
type ring struct {
	slot    [DefaultWindow]*Call
	head, n int
}

func (q *ring) at(i int) **Call { return &q.slot[(q.head+i)%DefaultWindow] }

// outbuf is one side of the connection's double buffer: frames queued for
// one write.
type outbuf struct {
	enc  []byte      // encoded frames, minus the values above memcached.InlineValue
	segs net.Buffers // closed segments: runs of enc alternating with callers' large values
	cut  int         // enc[cut:] is not in segs yet
}

// mark returns the state truncate needs to undo every add made after it.
func (o *outbuf) mark() (enc, segs, cut int) { return len(o.enc), len(o.segs), o.cut }

func (o *outbuf) truncate(enc, segs, cut int) {
	clear(o.segs[segs:])
	o.enc, o.segs, o.cut = o.enc[:enc], o.segs[:segs], cut
}

// add queues one frame. Nothing is queued when the frame does not validate.
func (o *outbuf) add(f *binproto.Frame) error {
	enc, err := binproto.AppendHeader(o.enc, f)
	if err != nil {
		return err
	}
	// A value up to InlineValue is copied into the queue; a larger one stays
	// in the caller's buffer and goes out as its own segment of a vectored
	// write (writev on a TCP connection).
	if len(f.Value) <= memcached.InlineValue {
		o.enc = append(enc, f.Value...)
		return nil
	}
	// Earlier segments keep pointing into the array enc had when they were
	// closed; growing enc never rewrites those bytes.
	o.enc = enc
	o.segs = append(o.segs, enc[o.cut:], f.Value)
	o.cut = len(enc)
	return nil
}

// seal closes the last run and returns the segments to write, in order.
func (o *outbuf) seal() net.Buffers {
	if o.cut < len(o.enc) {
		o.segs = append(o.segs, o.enc[o.cut:])
		o.cut = len(o.enc)
	}
	return o.segs
}

// reset empties the queue and drops its references to callers' values.
func (o *outbuf) reset() {
	o.truncate(0, 0, 0)
	if cap(o.enc) > maxEncKeep {
		o.enc = nil
	}
}

// Call is one issued operation: a single request, a quiet-op burst with
// its NOOP terminator, or a stats request answered by a stream of frames.
// It is completed exactly once (Client.complete) — by the reader when it
// hands back a call whose terminating frame has arrived, or by drain.
type Call struct {
	op     binproto.Opcode
	first  uint32 // opaque of the first frame
	quiet  int    // quiet frames first..first+quiet-1; first+quiet is their NOOP
	stream bool   // stats: frames share first, an empty key (or an error) ends them

	// done is the completion signal: one Add at issue, one Done by whoever
	// completes the call, after it has set the outcome below. A WaitGroup
	// rather than a channel because it lives inside the Call, so an
	// operation costs one allocation, not two.
	done sync.WaitGroup
	resp binproto.Frame // the terminating frame
	err  error          // or why there is none
	// frames are the answers before the terminating one (quiet ops that did
	// answer, stat entries). Only the reader appends, before it completes
	// the call; the caller reads them after a successful completion.
	frames []binproto.Frame
	// keys are an IssueGetMulti call's keys, by opaque - first.
	keys []string
}

// Option configures a Client at construction.
type Option func(*Client)

// WithReconnect enables transparent reconnect after connection failures.
// In-flight operations still fail fast with a *ConnError (the bytes on the
// dead socket are unrecoverable), but the client redials in the background
// with jittered exponential backoff; operations issued while disconnected
// fail fast too, and flow again once the redial succeeds. Only effective
// for clients built with Dial (NewClient has no address to redial).
func WithReconnect(p ReconnectPolicy) Option {
	return func(c *Client) { c.policy = p }
}

// StatusError is returned for non-OK protocol responses.
type StatusError struct {
	Op     binproto.Opcode
	Status binproto.Status
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("mcclient: %s: %s", e.Op, e.Status)
}

// IsNotFound reports whether err is a key-not-found protocol status.
func IsNotFound(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == binproto.StatusKeyNotFound
}

// IsExists reports whether err is a key-exists (CAS mismatch) status.
func IsExists(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == binproto.StatusKeyExists
}

// IsNotStored reports whether err is a not-stored status.
func IsNotStored(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Status == binproto.StatusItemNotStored
}

// Dial connects to addr with the given timeout. The address is retained,
// so WithReconnect can redial after a connection failure.
func Dial(addr string, timeout time.Duration, opts ...Option) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newClient(conn, addr, timeout, opts...), nil
}

// NewClient wraps an established connection and starts the response reader.
func NewClient(conn net.Conn, opts ...Option) *Client {
	return newClient(conn, "", 0, opts...)
}

func newClient(conn net.Conn, addr string, dialTO time.Duration, opts ...Option) *Client {
	c := &Client{
		conn:   conn,
		addr:   addr,
		dialTO: dialTO,
		window: make(chan struct{}, DefaultWindow),
		out:    &outbuf{},
		spare:  &outbuf{},
	}
	for _, o := range opts {
		o(c)
	}
	go c.readLoop(bufio.NewReader(conn), 0)
	return c
}

// Addr returns the dialed address ("" for NewClient-built clients).
func (c *Client) Addr() string { return c.addr }

// Close closes the connection. Outstanding operations fail with ErrClosed
// and no reconnect is attempted.
func (c *Client) Close() error {
	c.wmu.Lock()
	c.closed = true
	gen := c.gen
	c.wmu.Unlock()
	c.failAll(gen, ErrClosed)
	return nil
}

// complete wakes the call's waiter with its outcome: the terminating frame
// the reader left in resp, or err. The operation is off the wire, so its
// window slot is free again.
func (c *Client) complete(cl *Call, err error) {
	cl.err = err
	cl.done.Done()
	<-c.window
}

// readLoop is the single reader goroutine for one connection generation.
func (c *Client) readLoop(r *bufio.Reader, gen int) {
	rd := &reader{c: c, gen: gen, r: r}
	for {
		if err := rd.frame(); err != nil {
			c.failAll(gen, err)
			return
		}
	}
}

// maxStageKeep is the largest staging buffer a reader keeps between replies.
const maxStageKeep = 1 << 20

// reader is the state of one readLoop: cl is the oldest call on the wire,
// which may still be answered on the opaques from its first+next on.
type reader struct {
	c     *Client
	gen   int
	r     *bufio.Reader
	head  []byte // ReadHead's buffer: a reply's extras and key
	stage []byte // a value that arrives over several reads
	cl    *Call
	next  uint32
}

// frame reads one reply and records it on the call it answers. Replies
// come in issue order, so a reply answers the oldest call on the wire, on
// what is left of its opaques: a quiet burst's answers strictly ascending,
// then its NOOP; a stats stream's entries on its one opaque. Any other
// opaque, or a frame that is no reply, is a protocol violation and is
// refused before its value is read. The call a reply ends leaves the ring
// and is completed at once.
func (rd *reader) frame() error {
	var f binproto.Frame
	var n int
	var err error
	if rd.head, n, err = binproto.ReadHead(rd.r, &f, rd.head); err != nil {
		return err
	}
	if f.Magic != binproto.MagicResponse {
		return fmt.Errorf("%w: 0x%02x where a reply belongs", binproto.ErrBadMagic, f.Magic)
	}
	if rd.cl == nil {
		if err := rd.sync(false); err != nil {
			return err
		} else if rd.cl == nil {
			return fmt.Errorf("mcclient: reply with opaque %d to no request", f.Opaque)
		}
	}
	cl := rd.cl
	off := f.Opaque - cl.first
	last := off == uint32(cl.quiet) && (!cl.stream || f.Status != binproto.StatusOK || len(f.Key) == 0)
	if !last && (off < rd.next || off > uint32(cl.quiet)) {
		return fmt.Errorf("mcclient: reply with opaque %d where %d..%d are owed", f.Opaque, cl.first+rd.next, cl.first+uint32(cl.quiet))
	}
	if err := rd.body(&f, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return err
	}
	switch {
	case last:
		cl.resp = f
		rd.next = 0
		return rd.sync(true)
	case off < uint32(cl.quiet):
		rd.next = off + 1 // a quiet op that did answer: a GETQ hit or a rejected SETQ
	}
	cl.frames = append(cl.frames, f)
	return nil
}

// sync takes wmu to learn the oldest call on the wire, first taking the
// call the reader has just finished off the ring when pop is set; it then
// completes that call. Once the connection has failed, its calls, finished
// or not, are drain's to complete.
func (rd *reader) sync(pop bool) error {
	c, q := rd.c, &rd.c.calls
	c.wmu.Lock()
	if c.gen != rd.gen || c.err != nil {
		c.wmu.Unlock()
		return net.ErrClosed
	}
	done := rd.cl
	if pop {
		*q.at(0) = nil
		q.head, q.n = q.head+1, q.n-1
	}
	rd.cl = nil
	if q.n > 0 {
		rd.cl = *q.at(0)
	}
	c.wmu.Unlock()
	if pop {
		c.complete(done, nil)
	}
	return nil
}

// body gives f its extras, key and n-byte value in one exact-size
// allocation of its own, copied straight out of the read buffer when the
// value is all there, else out of the staging buffer. That buffer grows
// only once what it holds has arrived, so it is at most twice the bytes
// read: a peer that declares a huge value and stalls costs nothing. A reply
// that failed keeps none of it, and its body is discarded unread.
func (rd *reader) body(f *binproto.Frame, n int) error {
	if f.Status != binproto.StatusOK {
		f.Extras, f.Key = nil, nil
		_, err := rd.r.Discard(n)
		return err
	}
	value, buffered := rd.stage[:0], n <= rd.r.Buffered()
	if buffered {
		value, _ = rd.r.Peek(n)
	}
	for len(value) < n {
		if len(value) == cap(value) {
			if _, err := rd.r.Peek(1); err != nil {
				return err
			}
			value = slices.Grow(value, min(max(len(value), rd.r.Buffered()), n-len(value)))
		}
		m, err := rd.r.Read(value[len(value):min(cap(value), n)])
		if value = value[:len(value)+m]; err != nil {
			return err
		}
	}
	// Appending to a full slice spares the runtime zeroing what the copy
	// overwrites, which make would not.
	body := append(rd.head[:len(rd.head):len(rd.head)], value...)
	if n == 0 {
		body = append([]byte(nil), rd.head...) // nil for an empty body
	}
	ext, head := len(f.Extras), len(rd.head)
	f.Extras, f.Key, f.Value = body[:ext], body[ext:head], body[head:]
	if buffered {
		rd.r.Discard(n)
	} else if rd.stage = value; cap(value) > maxStageKeep {
		rd.stage = nil
	}
	return nil
}

// failAll poisons the current connection generation: the sticky error is
// set, the connection is closed, and every outstanding caller is completed
// fast with a typed *ConnError — the cluster client retries those on a
// replica. When a reconnect policy is configured, a background redial
// starts; until it succeeds, new operations also fail fast. While a flush
// is in progress the completing is left to the flusher (see drain).
func (c *Client) failAll(gen int, cause error) {
	c.wmu.Lock()
	if gen != c.gen {
		c.wmu.Unlock() // stale failure from an already-replaced connection
		return
	}
	c.poison(cause)
	if c.flushing {
		conn := c.conn
		c.wmu.Unlock()
		conn.Close() // the flusher's write returns, and it drains
		return
	}
	c.drain()
}

// poison sets the sticky error, with wmu held. The first failure of an
// outage wins, so every caller it fails sees the same error.
func (c *Client) poison(cause error) {
	if c.err == nil {
		c.err = &ConnError{Addr: c.addr, Permanent: c.closed, Err: cause}
	}
}

// drain completes every outstanding caller with the sticky error, empties
// the queue, closes the connection and starts the reconnect. It is called
// with wmu held, err set and no flush in progress, and releases wmu.
//
// That no flush is in progress is what makes a caller's large value safe:
// a value above memcached.InlineValue is written from the caller's own
// buffer by whichever goroutine flushes, and the caller gets its buffer back
// when its call completes — with a reply, which the server sends only after reading
// the whole value, or here, after the last write that could carry it has
// returned. It also means no write on the old connection overlaps a
// reconnect.
func (c *Client) drain() {
	err := c.err
	calls := c.calls
	c.calls = ring{}
	c.out.reset()
	conn := c.conn
	gen := c.gen
	reconnect := !c.closed && c.addr != "" && c.policy.MaxAttempts > 0
	if reconnect {
		c.gen++ // later failures from this dead conn are stale
		gen = c.gen
	}
	c.wmu.Unlock()
	conn.Close()
	if reconnect {
		go c.reconnectLoop(gen)
	}
	for i := range calls.n {
		c.complete(*calls.at(i), err)
	}
}

// reconnectLoop redials with jittered exponential backoff. On success the
// fresh connection replaces the dead one, the sticky error clears, and a
// new reader starts; after MaxAttempts failures the client fails
// permanently. Attempts are bounded per outage, not over the client's
// lifetime: every established-then-broken connection gets a fresh budget.
func (c *Client) reconnectLoop(gen int) {
	delay := c.policy.BaseDelay
	var lastErr error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		time.Sleep(jittered)
		conn, err := net.DialTimeout("tcp", c.addr, c.dialTO)
		c.wmu.Lock()
		if c.closed || c.gen != gen {
			c.wmu.Unlock()
			if err == nil {
				conn.Close()
			}
			return
		}
		if err == nil {
			// The new connection starts with no call on the wire and
			// nothing queued: drain emptied both, and every issue since has
			// failed fast on err.
			c.conn = conn
			c.err = nil
			c.wmu.Unlock()
			go c.readLoop(bufio.NewReader(conn), gen)
			return
		}
		lastErr = err
		c.wmu.Unlock()
		if delay *= 2; delay > c.policy.MaxDelay {
			delay = c.policy.MaxDelay
		}
	}
	c.wmu.Lock()
	if c.gen == gen && !c.closed {
		c.err = &ConnError{
			Addr: c.addr, Permanent: true,
			Err: fmt.Errorf("reconnect: %d attempts exhausted: %w", c.policy.MaxAttempts, lastErr),
		}
	}
	c.wmu.Unlock()
}

// issue is the one way onto the wire. It takes a window slot, queues the
// call's frames — frame(0), or frame(0..quiet-1) and the NOOP that
// terminates a quiet burst — in issue order, queues cl for the replies,
// and makes sure a flush carries them: if none is in progress the caller
// becomes the flusher. A call that could not be issued comes back already
// completed with the error, and nothing of it is queued.
func (c *Client) issue(cl *Call, frame func(i int) binproto.Frame) *Call {
	n := max(cl.quiet, 1)
	cl.done.Add(1)
	c.window <- struct{}{}
	c.wmu.Lock()
	err := c.err
	busy := c.calls.n > 0
	encMark, segMark, cutMark := c.out.mark()
	cl.first = c.opaque + 1
	for i := 0; err == nil && i < n; i++ {
		f := frame(i)
		f.Magic, f.Opaque = binproto.MagicRequest, cl.first+uint32(i)
		err = c.out.add(&f)
	}
	if err == nil && cl.quiet > 0 {
		err = c.out.add(&binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpNoop, Opaque: cl.first + uint32(n)})
	}
	if err != nil {
		c.out.truncate(encMark, segMark, cutMark)
		c.wmu.Unlock()
		c.complete(cl, err)
		return cl
	}
	*c.calls.at(c.calls.n) = cl
	c.calls.n++
	c.opaque = cl.first + uint32(cl.quiet)
	if c.flushing {
		c.wmu.Unlock()
		return cl
	}
	c.flushing = true
	c.flush(busy)
	return cl
}

// flush writes the queue until it is empty: one write for everything queued
// when it starts, and one more for whatever callers queued during each
// write. It is called with wmu held and flushing just set by the caller,
// and releases wmu.
//
// yield says other operations were in flight when the caller issued — the
// observable sign of concurrent callers, who are then likely runnable and
// about to issue too. Giving them the processor once before the first write
// lets their frames share it. Without that sign (a lone caller, or one
// caller per connection) the yield would only add a scheduler round to
// every operation.
func (c *Client) flush(yield bool) {
	if yield {
		c.wmu.Unlock()
		runtime.Gosched()
		c.wmu.Lock()
	}
	for c.err == nil && len(c.out.enc) > 0 {
		q := c.out
		c.out, c.spare = c.spare, nil
		segs, conn := q.seal(), c.conn
		c.wmu.Unlock()
		var err error
		if len(segs) == 1 {
			_, err = conn.Write(segs[0])
		} else {
			// WriteTo consumes the slice it is called on; q.segs keeps the
			// backing array for reset.
			_, err = segs.WriteTo(conn)
		}
		q.reset()
		c.wmu.Lock()
		c.spare = q
		if err != nil {
			c.poison(err)
		}
	}
	c.flushing = false
	if c.err != nil {
		c.drain()
		return
	}
	c.wmu.Unlock()
}

// wait blocks for the call's completion and returns its terminating frame.
func (cl *Call) wait() (*binproto.Frame, error) {
	cl.done.Wait()
	if cl.err != nil {
		return nil, cl.err
	}
	if cl.resp.Status != binproto.StatusOK {
		return nil, &StatusError{Op: cl.op, Status: cl.resp.Status}
	}
	return &cl.resp, nil
}

// roundTrip issues one request and waits for its response. Nothing is held
// during the wait, so concurrent callers pipeline on the wire.
func (c *Client) roundTrip(req *binproto.Frame) (*binproto.Frame, error) {
	return c.issue(&Call{op: req.Op}, func(int) binproto.Frame { return *req }).wait()
}

// Item is a client-side view of a cache entry.
type Item struct {
	Key    string
	Value  []byte
	Flags  uint32
	CAS    uint64
	Expiry uint32 // seconds (or absolute unix time if > 30 days)
}

// Get fetches the item stored under key.
func (c *Client) Get(key string) (*Item, error) {
	resp, err := c.roundTrip(&binproto.Frame{Op: binproto.OpGet, Key: []byte(key)})
	if err != nil {
		return nil, err
	}
	flags, err := binproto.ParseGetExtras(resp.Extras)
	if err != nil {
		return nil, err
	}
	return &Item{Key: key, Value: resp.Value, Flags: flags, CAS: resp.CAS}, nil
}

// GetMulti fetches many keys in one wire burst: a GETQ per key followed by
// a NOOP terminator. Quiet gets answer only on hit, so misses cost nothing
// on the return path; the whole batch is one round-trip. Missing keys are
// simply absent from the result map.
func (c *Client) GetMulti(keys []string) (map[string]*Item, error) {
	return c.IssueGetMulti(keys).Items()
}

// IssueGetMulti starts GetMulti's burst and returns without waiting for
// the replies; Items waits for them. The keys are read at issue and by
// Items, and must not change in between.
func (c *Client) IssueGetMulti(keys []string) *Call {
	cl := &Call{op: binproto.OpGetQ, quiet: len(keys), keys: keys}
	if len(keys) == 0 {
		return cl // complete as it is: no frame to send, no reply to wait for
	}
	return c.issue(cl, func(i int) binproto.Frame {
		return binproto.Frame{Op: binproto.OpGetQ, Key: []byte(keys[i])}
	})
}

// Items waits for a call IssueGetMulti started and returns what GetMulti
// returns.
func (cl *Call) Items() (map[string]*Item, error) {
	if _, err := cl.wait(); err != nil {
		return nil, err
	}
	items := make(map[string]*Item, len(cl.frames))
	for i := range cl.frames {
		f := &cl.frames[i]
		if f.Status != binproto.StatusOK {
			continue // treat per-key errors as misses, like quiet gets do
		}
		flags, err := binproto.ParseGetExtras(f.Extras)
		if err != nil {
			return nil, err
		}
		key := cl.keys[f.Opaque-cl.first]
		items[key] = &Item{Key: key, Value: f.Value, Flags: flags, CAS: f.CAS}
	}
	return items, nil
}

// SetMulti stores many items in one wire burst: a SETQ per item followed by
// a NOOP terminator. Quiet sets answer only on failure, so the happy path
// is one round-trip regardless of batch size. The returned map holds a
// per-key error for each store the server rejected (empty on full success);
// the error return is reserved for connection-level failures. Successful
// quiet sets do not report a CAS. The items' values follow Set's ownership
// rule.
func (c *Client) SetMulti(items []*Item) (map[string]error, error) {
	failed := make(map[string]error)
	if len(items) == 0 {
		return failed, nil
	}
	var extras [8]byte
	cl := c.issue(&Call{op: binproto.OpSetQ, quiet: len(items)}, func(i int) binproto.Frame {
		return setFrame(binproto.OpSetQ, items[i], items[i].CAS, &extras)
	})
	if _, err := cl.wait(); err != nil {
		return nil, err
	}
	for i := range cl.frames {
		f := &cl.frames[i]
		failed[items[f.Opaque-cl.first].Key] = &StatusError{Op: binproto.OpSetQ, Status: f.Status}
	}
	return failed, nil
}

// setFrame builds a store request for it. extras is the caller's scratch
// for the flags+expiry block; the frame is encoded before it is reused.
func setFrame(op binproto.Opcode, it *Item, cas uint64, extras *[8]byte) binproto.Frame {
	return binproto.Frame{
		Op:     op,
		Key:    []byte(it.Key),
		Value:  it.Value,
		Extras: binproto.AppendSetExtras(extras[:0], it.Flags, it.Expiry),
		CAS:    cas,
	}
}

// Wait blocks until the operation completes and returns what its blocking
// form returns (the new CAS for a store, 0 for a delete).
func (cl *Call) Wait() (uint64, error) {
	resp, err := cl.wait()
	if err != nil {
		return 0, err
	}
	return resp.CAS, nil
}

// IssueSet starts an unconditional store and returns without waiting for
// the reply, so the caller can issue to other connections before it waits:
// the round-trips overlap without a goroutine per connection. Any failure,
// including one that kept the request off the wire, is reported by Wait.
//
// Ownership: it and it.Value belong to the client from IssueSet until Wait
// returns (for Set and SetMulti, until they return), and are never
// referenced afterwards, whatever the outcome. A value up to 4 KiB is
// copied into the connection's queue at issue; a larger one is written
// from the caller's buffer — by this goroutine or by another caller's
// flush — so it must not be modified in between.
func (c *Client) IssueSet(it *Item) *Call { return c.issueStore(binproto.OpSet, it, 0) }

// IssueDelete starts a delete; see IssueSet.
func (c *Client) IssueDelete(key string) *Call {
	return c.issue(&Call{op: binproto.OpDelete}, func(int) binproto.Frame {
		return binproto.Frame{Op: binproto.OpDelete, Key: []byte(key)}
	})
}

func (c *Client) issueStore(op binproto.Opcode, it *Item, cas uint64) *Call {
	var extras [8]byte
	return c.issue(&Call{op: op}, func(int) binproto.Frame {
		return setFrame(op, it, cas, &extras)
	})
}

func (c *Client) storeOp(op binproto.Opcode, it *Item, cas uint64) (uint64, error) {
	return c.issueStore(op, it, cas).Wait()
}

// Set stores the item unconditionally and returns its new CAS.
func (c *Client) Set(it *Item) (uint64, error) { return c.storeOp(binproto.OpSet, it, 0) }

// Add stores the item only if absent.
func (c *Client) Add(it *Item) (uint64, error) { return c.storeOp(binproto.OpAdd, it, 0) }

// Replace stores the item only if present.
func (c *Client) Replace(it *Item) (uint64, error) { return c.storeOp(binproto.OpReplace, it, 0) }

// CompareAndSwap stores the item only if the server CAS matches cas.
func (c *Client) CompareAndSwap(it *Item, cas uint64) (uint64, error) {
	return c.storeOp(binproto.OpSet, it, cas)
}

// Delete removes the key.
func (c *Client) Delete(key string) error {
	_, err := c.IssueDelete(key).Wait()
	return err
}

// Incr adds delta to a numeric item, creating it as initial if absent.
func (c *Client) Incr(key string, delta, initial uint64, expiry uint32) (uint64, error) {
	return c.counterOp(binproto.OpIncrement, key, delta, initial, expiry)
}

// Decr subtracts delta from a numeric item (saturating at zero).
func (c *Client) Decr(key string, delta, initial uint64, expiry uint32) (uint64, error) {
	return c.counterOp(binproto.OpDecrement, key, delta, initial, expiry)
}

func (c *Client) counterOp(op binproto.Opcode, key string, delta, initial uint64, expiry uint32) (uint64, error) {
	resp, err := c.roundTrip(&binproto.Frame{
		Op:     op,
		Key:    []byte(key),
		Extras: binproto.CounterExtras(delta, initial, expiry),
	})
	if err != nil {
		return 0, err
	}
	return binproto.ParseCounterValue(resp.Value)
}

// Touch updates an item's expiry.
func (c *Client) Touch(key string, expiry uint32) error {
	_, err := c.roundTrip(&binproto.Frame{
		Op: binproto.OpTouch, Key: []byte(key), Extras: binproto.TouchExtras(expiry),
	})
	return err
}

// Flush invalidates every item on the server.
func (c *Client) Flush() error {
	_, err := c.roundTrip(&binproto.Frame{Op: binproto.OpFlush})
	return err
}

// Noop performs a protocol no-op (useful as a ping).
func (c *Client) Noop() error {
	_, err := c.roundTrip(&binproto.Frame{Op: binproto.OpNoop})
	return err
}

// Version returns the server version string.
func (c *Client) Version() (string, error) {
	resp, err := c.roundTrip(&binproto.Frame{Op: binproto.OpVersion})
	if err != nil {
		return "", err
	}
	return string(resp.Value), nil
}

// Stats fetches the server's statistics map. The response is a stream of
// frames sharing one opaque, ended by an empty-key frame.
func (c *Client) Stats() (map[string]string, error) {
	cl := c.issue(&Call{op: binproto.OpStat, stream: true}, func(int) binproto.Frame {
		return binproto.Frame{Op: binproto.OpStat}
	})
	if _, err := cl.wait(); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(cl.frames))
	for i := range cl.frames {
		f := &cl.frames[i]
		out[string(f.Key)] = string(f.Value)
	}
	return out, nil
}
