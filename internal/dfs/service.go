package dfs

import (
	"time"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// ServiceConfig places a simulated server on the fabric and prices its
// calls: the HDFS NameNode, the Lustre MDS, the burst buffer's manager
// and each buffer server are one Service apiece.
type ServiceConfig struct {
	// Name is the fabric service name the server registers under.
	Name string
	// Node is the fabric node the server runs on.
	Node netsim.NodeID
	// ReqSize is the wire size of every request envelope.
	ReqSize int64
	// Transport is the transport requests and replies ride.
	Transport netsim.Transport
	// OpLatency is the server's processing cost per op.
	OpLatency time.Duration
}

// Op is one server operation, a typed function of the caller's. The
// server runs it after its op latency, between the request and reply
// envelopes, on the calling process; it returns the reply's wire size
// and error. Results reach the caller through the variables it assigns.
type Op func(p *sim.Proc) (replySize int64, err error)

// Service is a simulated server: every op it serves costs a request
// envelope, the op latency, the op itself and a reply envelope.
type Service struct {
	net *netsim.Network
	cfg ServiceConfig
}

// NewService registers the server on its node.
func NewService(net *netsim.Network, cfg ServiceConfig) *Service {
	s := &Service{net: net, cfg: cfg}
	net.Register(cfg.Node, cfg.Name, s.serve)
	return s
}

// serve is the server's one handler: the request carries its op.
func (s *Service) serve(p *sim.Proc, m *netsim.Msg) netsim.Reply {
	p.Sleep(s.cfg.OpLatency)
	n, err := m.Payload.(Op)(p)
	return netsim.Reply{Size: n, Err: err}
}

// Call runs op on the server for a client on node from. The error is the
// op's, or the fabric's when either end is down.
func (s *Service) Call(p *sim.Proc, from netsim.NodeID, op Op) error {
	return s.net.Call(p, &netsim.Msg{
		From: from, To: s.cfg.Node, Service: s.cfg.Name,
		Size: s.cfg.ReqSize, Payload: op, Transport: s.cfg.Transport,
	}).Err
}

// Mkdir creates a directory and its parents in the server's tree t.
func (s *Service) Mkdir(p *sim.Proc, from netsim.NodeID, t *Tree, path string) error {
	return s.Call(p, from, func(*sim.Proc) (int64, error) { return 64, t.MkdirAll(path) })
}

// Stat looks a path up in the server's tree t.
func (s *Service) Stat(p *sim.Proc, from netsim.NodeID, t *Tree, path string) (FileInfo, error) {
	var fi FileInfo
	err := s.Call(p, from, func(*sim.Proc) (n int64, err error) {
		fi, err = t.Stat(path)
		return 128, err
	})
	return fi, err
}

// List returns a directory's entries in the server's tree t; the reply
// grows by 64 bytes an entry.
func (s *Service) List(p *sim.Proc, from netsim.NodeID, t *Tree, dir string) ([]FileInfo, error) {
	var fis []FileInfo
	err := s.Call(p, from, func(*sim.Proc) (n int64, err error) {
		fis, err = t.List(dir)
		return 64 + 64*int64(len(fis)), err
	})
	return fis, err
}
