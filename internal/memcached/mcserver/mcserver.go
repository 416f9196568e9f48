// Package mcserver serves a memcached engine over TCP using the memcached
// binary protocol. One goroutine per connection, all over one engine, which
// does its own locking: a connection holds the engine's lock only inside an
// engine call, never while it moves a value through the socket.
//
// A value crosses the server once in each direction. A request is read up
// to its key; a SET-family value is then read from the socket straight into
// storage the engine has reserved for it and committed, and a GET reply is
// sent from the item's storage while a pin holds it in place. Nothing is
// allocated at a length the peer declares: what the engine cannot store is
// discarded from the socket and answered with its status. The per-connection
// frame and head buffers are reused, so steady-state request handling
// allocates the key string and nothing for the value.
package mcserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
)

// Version is the version string reported for OpVersion.
const Version = "hbb-memcached/1.1"

// Server wraps an engine and serves connections.
type Server struct {
	engine *memcached.Engine
	now    func() int64

	lnMu   sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	connsAccepted atomic.Int64
}

// New returns a server over a fresh engine with the given configuration.
// The engine clock is wall time unless cfg.Clock is set.
func New(cfg memcached.Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return &Server{
		engine: memcached.NewEngine(cfg),
		now:    cfg.Clock,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Engine exposes the underlying engine. It is safe to use concurrently
// with a running server.
func (s *Server) Engine() *memcached.Engine { return s.engine }

// ConnsAccepted returns the number of connections accepted so far.
func (s *Server) ConnsAccepted() int64 { return s.connsAccepted.Load() }

// Serve accepts connections from ln until Stop or Close is called. Called
// after Stop, it closes ln and returns at once.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		return ln.Close()
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.connsAccepted.Add(1)
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		// Counted before Stop can see the connection, so that Stop's wait
		// covers its handler.
		s.wg.Add(1)
		s.lnMu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, terminates every active connection immediately
// and, once their handlers are gone, empties the engine and gives its
// mapped memory back. Stop leaves the engine as it is, for callers that
// inspect it afterwards.
func (s *Server) Close() error {
	err := s.Stop(0)
	s.engine.Close()
	return err
}

// Stop shuts the server down: it closes the listener so no new connections
// arrive, waits up to drain for in-flight connection handlers to finish on
// their own, then force-closes whatever connections remain and waits for
// their handlers to unwind. Handlers are never stranded: every accepted
// connection is tracked and closed, and Stop returns only after all
// handler goroutines have exited.
func (s *Server) Stop(drain time.Duration) error {
	s.lnMu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	s.lnMu.Unlock()
	var err error
	if ln != nil && !alreadyClosed {
		err = ln.Close()
	}
	if drain > 0 {
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
			return err
		case <-time.After(drain):
		}
	}
	s.lnMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return err
}

// connState is the per-connection scratch reused across requests: the
// decoded frame, the buffer holding its header, extras and key, and an
// extras/value buffer for fixed-size response sections. Pooled so
// short-lived connections do not re-allocate.
type connState struct {
	req  binproto.Frame
	head []byte
	ext  []byte
}

var statePool = sync.Pool{
	New: func() any {
		return &connState{head: make([]byte, 0, 512), ext: make([]byte, 0, 32)}
	},
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	cs := statePool.Get().(*connState)
	defer statePool.Put(cs)
	for {
		var valueLen int
		var err error
		cs.head, valueLen, err = binproto.ReadHead(r, &cs.req, cs.head)
		if err != nil {
			return // EOF, or not the binary protocol: drop the connection
		}
		if cs.req.Magic != binproto.MagicRequest {
			return
		}
		quit := s.dispatch(r, w, &cs.req, valueLen, cs)
		// Flush only when the read buffer is drained: pipelined clients get
		// their whole burst answered in one write instead of one flush per
		// response.
		if quit {
			w.Flush()
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// expiryToAbs converts a protocol expiry (seconds, or absolute unix time if
// > 30 days, per memcached convention) to an absolute ns timestamp.
func (s *Server) expiryToAbs(expiry uint32) int64 {
	if expiry == 0 {
		return 0
	}
	const thirtyDays = 60 * 60 * 24 * 30
	if expiry > thirtyDays {
		return int64(expiry) * int64(time.Second)
	}
	return s.now() + int64(expiry)*int64(time.Second)
}

func statusFor(err error) binproto.Status {
	switch {
	case err == nil:
		return binproto.StatusOK
	case errors.Is(err, memcached.ErrNotFound):
		return binproto.StatusKeyNotFound
	case errors.Is(err, memcached.ErrExists):
		return binproto.StatusKeyExists
	case errors.Is(err, memcached.ErrTooLarge):
		return binproto.StatusValueTooLarge
	case errors.Is(err, memcached.ErrNotStored):
		return binproto.StatusItemNotStored
	case errors.Is(err, memcached.ErrBadDelta):
		return binproto.StatusNonNumeric
	case errors.Is(err, memcached.ErrNoMemory):
		return binproto.StatusOutOfMemory
	case errors.Is(err, binproto.ErrKeyTooLong):
		return binproto.StatusInvalidArgs
	default:
		return binproto.StatusInvalidArgs
	}
}

func respond(w io.Writer, req *binproto.Frame, status binproto.Status, f binproto.Frame) bool {
	f.Magic = binproto.MagicResponse
	f.Op = req.Op
	f.Status = status
	f.Opaque = req.Opaque
	if status != binproto.StatusOK {
		f.Extras, f.Key, f.Value = nil, nil, []byte(status.String())
		f.CAS = 0
	}
	_ = binproto.Write(w, &f)
	return false
}

// refuse answers a request whose value the server will not take: the value
// is dropped from the socket unread into anything, then the status is sent.
// It reports whether the connection is lost.
func refuse(r *bufio.Reader, w io.Writer, req *binproto.Frame, valueLen int, status binproto.Status) (quit bool) {
	if _, err := r.Discard(valueLen); err != nil {
		return true
	}
	return respond(w, req, status, binproto.Frame{})
}

// store executes a SET-family request, whose value is still in r: it goes
// from the socket into the storage the engine reserves for it, once.
func (s *Server) store(r *bufio.Reader, w io.Writer, req *binproto.Frame, valueLen int) (quit bool) {
	flags, expiry, err := binproto.ParseSetExtras(req.Extras)
	if err != nil {
		return refuse(r, w, req, valueLen, binproto.StatusInvalidArgs)
	}
	mode := memcached.StoreSet
	switch {
	case req.Op == binproto.OpAdd:
		mode = memcached.StoreAdd
	case req.Op == binproto.OpReplace:
		mode = memcached.StoreReplace
	case req.CAS != 0:
		mode = memcached.StoreCAS
	}
	e := s.engine
	res, err := e.Reserve(memcached.Item{
		Key:      string(req.Key),
		Size:     valueLen,
		Flags:    flags,
		ExpireAt: s.expiryToAbs(expiry),
	}, mode, req.CAS)
	if err != nil {
		return refuse(r, w, req, valueLen, statusFor(err))
	}
	if _, err := io.ReadFull(r, res.Value); err != nil {
		e.Abort(res)
		return true
	}
	cas, err := e.Commit(res)
	if err != nil {
		return respond(w, req, statusFor(err), binproto.Frame{})
	}
	if req.Op == binproto.OpSetQ {
		return false // quiet set: silent on success
	}
	return respond(w, req, binproto.StatusOK, binproto.Frame{CAS: cas})
}

// dispatch executes one request, whose head is in req and whose value is
// still in r, and writes the response; it reports whether the connection
// should close (QUIT, or a value that could not be read). No lock is held
// here: each engine call takes the engine's own.
func (s *Server) dispatch(r *bufio.Reader, w io.Writer, req *binproto.Frame, valueLen int, cs *connState) (quit bool) {
	e := s.engine
	switch req.Op {
	case binproto.OpSet, binproto.OpSetQ, binproto.OpAdd, binproto.OpReplace:
		return s.store(r, w, req, valueLen)
	}
	if valueLen != 0 {
		return refuse(r, w, req, valueLen, binproto.StatusInvalidArgs)
	}
	switch req.Op {
	case binproto.OpGet, binproto.OpGetQ:
		p, err := e.Acquire(string(req.Key))
		if err != nil {
			if req.Op == binproto.OpGetQ {
				return false // quiet get: silent on miss
			}
			return respond(w, req, statusFor(err), binproto.Frame{})
		}
		cs.ext = binproto.AppendGetExtras(cs.ext[:0], p.Flags)
		respond(w, req, binproto.StatusOK, binproto.Frame{
			Extras: cs.ext, Value: p.Value, CAS: p.CAS,
		})
		// The value is in the socket or in w's buffer by now.
		e.Release(p)
		return false

	case binproto.OpDelete:
		err := e.Delete(string(req.Key))
		return respond(w, req, statusFor(err), binproto.Frame{})

	case binproto.OpIncrement, binproto.OpDecrement:
		delta, initial, expiry, err := binproto.ParseCounterExtras(req.Extras)
		if err != nil {
			return respond(w, req, binproto.StatusInvalidArgs, binproto.Frame{})
		}
		var init *uint64
		if expiry != 0xffffffff {
			init = &initial
		}
		d := int64(delta)
		if req.Op == binproto.OpDecrement {
			d = -d
		}
		v, err := e.IncrDecr(string(req.Key), d, init, s.expiryToAbs(expiry))
		if err != nil {
			return respond(w, req, statusFor(err), binproto.Frame{})
		}
		cs.ext = binproto.AppendCounterValue(cs.ext[:0], v)
		return respond(w, req, binproto.StatusOK, binproto.Frame{Value: cs.ext})

	case binproto.OpTouch:
		expiry, err := binproto.ParseTouchExtras(req.Extras)
		if err != nil {
			return respond(w, req, binproto.StatusInvalidArgs, binproto.Frame{})
		}
		err = e.Touch(string(req.Key), s.expiryToAbs(expiry))
		return respond(w, req, statusFor(err), binproto.Frame{})

	case binproto.OpFlush:
		e.Flush()
		return respond(w, req, binproto.StatusOK, binproto.Frame{})

	case binproto.OpNoop:
		return respond(w, req, binproto.StatusOK, binproto.Frame{})

	case binproto.OpVersion:
		return respond(w, req, binproto.StatusOK, binproto.Frame{Value: []byte(Version)})

	case binproto.OpStat:
		// Emit one frame per statistic, then a terminating empty frame.
		for _, kv := range statPairs(e.Stats()) {
			_ = binproto.Write(w, &binproto.Frame{
				Magic: binproto.MagicResponse, Op: req.Op, Opaque: req.Opaque,
				Key: []byte(kv.k), Value: []byte(fmt.Sprint(kv.v)),
			})
		}
		return respond(w, req, binproto.StatusOK, binproto.Frame{})

	case binproto.OpQuit:
		respond(w, req, binproto.StatusOK, binproto.Frame{})
		return true

	default:
		return respond(w, req, binproto.StatusUnknownCommand, binproto.Frame{})
	}
}

type statPair struct {
	k string
	v int64
}

func statPairs(st memcached.Stats) []statPair {
	return []statPair{
		{"cmd_get", st.CmdGet}, {"cmd_set", st.CmdSet},
		{"get_hits", st.GetHits}, {"get_misses", st.GetMisses},
		{"delete_hits", st.DeleteHits}, {"delete_misses", st.DeleteMisses},
		{"cas_hits", st.CasHits}, {"cas_misses", st.CasMisses},
		{"cas_badval", st.CasBadval},
		{"curr_items", st.CurrItems}, {"total_items", st.TotalItems},
		{"bytes", st.Bytes}, {"evictions", st.Evictions},
		{"expired", st.Expired}, {"limit_maxbytes", st.LimitMaxBytes},
		{"hash_power_level", st.HashPowerLevel}, {"hash_bytes", st.HashBytes},
	}
}
