package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// wireBackend is the Federator's backend with an observable Disconnect: a
// bye's teardown runs on the server's goroutine, and the fuzz waits for it
// before the simulated clock, which is not safe for concurrent use, is
// touched again.
type wireBackend struct {
	f    *federation.Federator
	mu   sync.Mutex
	gone map[int]chan struct{} // by application ID
}

func (b *wireBackend) Connect(h rms.AppHandler, opts ...rms.ConnectOption) Session {
	s := &goneSession{Session: b.f.Connect(h, opts...), gone: make(chan struct{})}
	b.mu.Lock()
	b.gone[s.AppID()] = s.gone
	b.mu.Unlock()
	return s
}

func (b *wireBackend) disconnected(app int) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gone[app]
}

// wireClient is one fuzzed application: a raw protocol endpoint over
// net.Pipe into Server.handle, and what the oracle knows about its session.
type wireClient struct {
	t       *testing.T
	srv     *Server
	backend *wireBackend
	conn    net.Conn
	frames  chan wireFrame // every server frame in arrival order; closed at EOF
	eof     bool           // frames is closed
	killed  bool           // the session was killed: a kill frame arrived
	token   string
	app     int
	seq     int64
	idem    int64
	// acked lists the requests the session was acked, in ack order; nodes
	// holds a started one's node IDs, started the IDs of non-replay starts.
	acked   []request.ID
	isAcked map[request.ID]bool
	nodes   map[request.ID][]int
	started map[request.ID]bool
	// replies counts the replies (ack, error or pong) by seq.
	replies map[int64]int
}

type wireFrame struct {
	m   *proto.Message
	err error
}

// dial connects c on a fresh pipe, fresh or resuming its session, and waits
// for the connected frame.
func (c *wireClient) dial(resume bool) {
	srvEnd, cliEnd := net.Pipe()
	go c.srv.handle(srvEnd)
	// Sized past the frames one input can produce: the reader never blocks,
	// so the server's writer never stalls into an eviction.
	c.conn, c.frames, c.eof = cliEnd, make(chan wireFrame, 1<<14), false
	go func(conn net.Conn, out chan<- wireFrame) {
		defer close(out)
		fr := newFrameReader(conn, 0)
		for {
			line, err := fr.next()
			if err != nil {
				return
			}
			m, err := proto.Unmarshal(line)
			out <- wireFrame{m, err}
		}
	}(cliEnd, c.frames)
	hello := proto.Message{Type: proto.MsgConnect}
	if resume {
		hello.Resume = c.token
	} else {
		*c = wireClient{t: c.t, srv: c.srv, backend: c.backend, conn: c.conn, frames: c.frames,
			isAcked: map[request.ID]bool{}, nodes: map[request.ID][]int{},
			started: map[request.ID]bool{}, replies: map[int64]int{}}
	}
	c.send(hello)
	c.pump(func(m *proto.Message) bool { return m.Type == proto.MsgConnected })
	if c.eof {
		c.t.Fatalf("connect (resume %v) got no connected frame", resume)
	}
}

func (c *wireClient) send(m proto.Message) {
	data, err := m.Marshal()
	if err != nil {
		c.t.Fatal(err)
	}
	// A write fails only on a connection the server closed; the pump that
	// follows tells a kill from a fault.
	c.conn.Write(append(data, '\n'))
}

// pump applies the oracle to every frame until until reports one, or the
// connection ends.
func (c *wireClient) pump(until func(*proto.Message) bool) {
	timeout := time.After(10 * time.Second)
	for !c.eof {
		select {
		case f, ok := <-c.frames:
			if !ok {
				c.eof = true
				return
			}
			if f.err != nil {
				c.t.Fatalf("server frame does not parse: %v", f.err)
			}
			c.observe(f.m)
			if until(f.m) {
				return
			}
		case <-timeout:
			c.t.Fatal("no frame for 10 s")
		}
	}
}

// observe checks one frame against the session's history.
func (c *wireClient) observe(m *proto.Message) {
	switch m.Type {
	case proto.MsgConnected:
		c.token, c.app = m.Resume, m.AppID
	case proto.MsgReqAck, proto.MsgError, proto.MsgPong:
		if m.Seq == 0 {
			return // unsolicited
		}
		if c.replies[m.Seq]++; c.replies[m.Seq] > 1 {
			c.t.Fatalf("call %d answered twice: %+v", m.Seq, m)
		}
	case proto.MsgStart:
		id := request.ID(m.ReqID)
		if !c.isAcked[id] {
			c.t.Fatalf("start of request %d, which the session was never acked", id)
		}
		if !m.Replay {
			if c.started[id] {
				c.t.Fatalf("request %d started twice", id)
			}
			c.started[id] = true
		}
		c.nodes[id] = m.NodeIDs
	case proto.MsgKill:
		c.killed = true
	}
}

// call sends m under the next seq and returns its one reply; nil when the
// session was killed and its connection closed first.
func (c *wireClient) call(m proto.Message) *proto.Message {
	c.seq++
	m.Seq = c.seq
	c.send(m)
	var reply *proto.Message
	c.pump(func(f *proto.Message) bool {
		if f.Seq == m.Seq && f.Type != proto.MsgViews && f.Type != proto.MsgStart {
			reply = f
		}
		return reply != nil
	})
	if reply == nil && !c.killed {
		c.t.Fatalf("call %+v: connection closed without a reply", m)
	}
	if reply != nil && reply.Type == proto.MsgReqAck && m.Type == proto.MsgRequest {
		id := request.ID(reply.ReqID)
		if !c.isAcked[id] {
			c.isAcked[id] = true
			c.acked = append(c.acked, id)
		}
	}
	return reply
}

// sync is a barrier: every frame the server queued before it is read. A
// killed session's connection closes instead of answering, and the client
// reconnects fresh.
func (c *wireClient) sync() {
	if !c.eof {
		c.call(proto.Message{Type: proto.MsgPing})
	}
	if c.eof {
		c.dial(false)
	}
}

// hangUp ends the connection: with a bye (the session is torn down), or by
// dropping the wire (the session waits for a resume).
func (c *wireClient) hangUp(bye bool) {
	if bye {
		c.send(proto.Message{Type: proto.MsgBye})
		c.pump(func(*proto.Message) bool { return false }) // until the server closes
		if !c.killed {
			select {
			case <-c.backend.disconnected(c.app):
			case <-time.After(10 * time.Second):
				c.t.Fatal("bye: the session was never torn down")
			}
		}
	}
	c.conn.Close()
	for range c.frames {
	}
	c.eof = true
}

// wireInput decodes the fuzz input one byte at a time; past its end every
// byte is 0.
type wireInput []byte

func (in *wireInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// pick chooses an ID the client knows: one of its own acked requests, one of
// another client's, or an invented one.
func pick(in *wireInput, own, other []request.ID) request.ID {
	switch b := in.next(); b % 3 {
	case 0:
		if len(own) > 0 {
			return own[b/3%len(own)]
		}
	case 1:
		if len(other) > 0 {
			return other[b/3%len(other)]
		}
	}
	return request.ID(1 << 40)
}

// FuzzWireSessions drives three raw clients, over net.Pipe into
// Server.handle, against a 2-shard Federator on the simulated clock (behind
// wireBackend). The input decodes into calls: request() with a fuzzed
// cluster, size, duration, type, relation and related_to; done() on an own,
// foreign or invented request with its nodes, part of them, duplicated or
// invented ones; an idempotent call and its retry; ping; an unknown message
// type; bye or a dropped wire, then a reconnect; and an engine advance. Nothing
// may panic, and: every server frame parses; every call gets exactly one
// ack or error by seq (unless a kill closed the session first); a retried
// idempotency token returns the original outcome; a session sees starts
// only for requests it was acked, and no non-replay start twice; and
// Federator.CheckInvariants holds after every operation.
func FuzzWireSessions(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 1, 1, 0, 7, 4, 7, 4, 1, 0, 0, 0, 5, 6})
	f.Add([]byte{0, 0, 5, 5, 2, 1, 0, 0, 8, 0, 6, 1, 3, 0, 2, 0, 7, 9, 1, 0, 0, 1, 7, 9})
	f.Add([]byte{0, 1, 3, 1, 1, 1, 0, 7, 9, 6, 7, 2, 7, 4, 1, 0, 1, 1, 3, 5})
	f.Add([]byte{16, 0, 4, 2, 3, 2, 0, 7, 5, 8, 0, 11, 2, 2, 2, 1, 7, 3, 13, 12, 15, 14})
	f.Add([]byte{0, 0, 3, 2, 1, 0, 0, 7, 4, 6})
	f.Add([]byte("0020120701"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := wireInput(data)
		e := sim.NewEngine()
		fed := federation.New(federation.Config{
			Clusters:        map[view.ClusterID]int{"east": 8, "west": 8},
			Shards:          2,
			ReschedInterval: 1,
			Clock:           clock.SimClock{E: e},
			Metrics:         func(int) *metrics.Recorder { return metrics.NewRecorder() },
		})
		backend := &wireBackend{f: fed, gone: map[int]chan struct{}{}}
		srv := NewBackendServer(backend)
		srv.Logf = func(string, ...any) {}
		srv.Grace = time.Hour // a dropped wire leaves its session for a resume
		clients := make([]*wireClient, 3)
		for i := range clients {
			clients[i] = &wireClient{t: t, srv: srv, backend: backend}
			clients[i].dial(false)
		}
		defer func() {
			for _, c := range clients {
				if !c.eof {
					c.hangUp(true)
				}
			}
			srv.Close()
		}()
		check := func(after string) {
			if err := fed.CheckInvariants(); err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
		}
		for ops := 0; len(in) > 0 && ops < 64; ops++ {
			b := in.next()
			c := clients[b/8%3]
			other := clients[(b/8+1)%3]
			c.sync()
			switch b % 8 {
			case 0: // request()
				m := proto.Message{
					Type:       proto.MsgRequest,
					Cluster:    []string{"east", "west", "", "north"}[in.next()%4],
					N:          in.next()%12 - 1,
					Duration:   []float64{1, 3, 20, -1, 0, 2.5}[in.next()%6],
					ReqType:    []string{"PA", "NP", "P", "X"}[in.next()%4],
					RelatedHow: []string{"", "FREE", "NEXT", "COALLOC", "AFTER"}[in.next()%5],
				}
				m.RelatedTo = int64(pick(&in, c.acked, other.acked))
				c.call(m)
			case 1: // done()
				id := pick(&in, c.acked, other.acked)
				nodes := c.nodes[id]
				var released []int
				switch in.next() % 5 {
				case 1:
					released = nodes
				case 2:
					released = nodes[:len(nodes)/2]
				case 3:
					released = append(append([]int(nil), nodes...), nodes...)
				case 4:
					released = []int{999}
				}
				c.call(proto.Message{Type: proto.MsgDone, ReqID: int64(id), Released: released})
			case 2: // an idempotent call, then its retry
				c.idem++
				m := proto.Message{Type: proto.MsgRequest, Idem: c.idem, Cluster: "east", N: 1 + in.next()%4, Duration: 2, ReqType: "NP"}
				if in.next()%2 == 1 {
					m = proto.Message{Type: proto.MsgDone, Idem: c.idem, ReqID: int64(pick(&in, c.acked, other.acked))}
				}
				first := c.call(m)
				retry := c.call(m)
				if first != nil && retry != nil && (first.Type != retry.Type || first.ReqID != retry.ReqID || first.Reason != retry.Reason) {
					t.Fatalf("idempotent retry of %+v: %+v, then %+v", m, first, retry)
				}
			case 3:
				c.call(proto.Message{Type: proto.MsgPing})
			case 4:
				if r := c.call(proto.Message{Type: proto.MsgType(fmt.Sprintf("op%d", in.next()))}); r != nil && r.Type != proto.MsgError {
					t.Fatalf("unknown message type answered with %+v", r)
				}
			case 5: // bye, then a fresh session
				c.hangUp(true)
				c.dial(false)
			case 6: // the wire drops, then the client resumes
				c.hangUp(false)
				c.dial(true)
			case 7:
				e.Run(e.Now() + float64(in.next()%16+1)*0.75)
			}
			check(fmt.Sprintf("op %d (%d)", ops, b%8))
		}
		for _, c := range clients {
			c.sync()
		}
		check("the last barrier")
	})
}
