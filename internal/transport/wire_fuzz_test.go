package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/metrics"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// wireGrace is the fuzzed server's grace window: op 7's engine advance can
// pass it.
const wireGrace = 2 * time.Second

// wireClient is one fuzzed application: a raw protocol endpoint over
// net.Pipe into Server.handle, and what the oracle knows about its session.
type wireClient struct {
	t   *testing.T
	srv *Server
	e   *sim.Engine // the server's clock
	// handled is closed when the connection's Server.handle returns: a bye's
	// teardown or a dropped wire's grace timer is then in place, and the
	// simulated clock, which is not safe for concurrent use, may be touched.
	handled chan struct{}
	conn    net.Conn
	frames  chan wireFrame // every server frame in arrival order; closed at EOF
	eof     bool           // frames is closed
	killed  bool           // the session was killed: a kill frame arrived
	// dropped: the wire dropped at engine time droppedAt and the session
	// awaits a resume, which the client's next operation makes.
	dropped   bool
	droppedAt float64
	token     string
	app       int
	seq       int64
	idem      int64
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

// open connects c on a fresh pipe into Server.handle and sends hello.
func (c *wireClient) open(hello proto.Message) {
	srvEnd, cliEnd := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		c.srv.handle(srvEnd)
	}()
	// Sized past the frames one input can produce: the reader never blocks,
	// so the server's writer never stalls into an eviction.
	c.conn, c.frames, c.eof, c.handled = cliEnd, make(chan wireFrame, 1<<14), false, handled
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
	c.send(hello)
}

// dial starts a fresh session and waits for the connected frame.
func (c *wireClient) dial() {
	*c = wireClient{t: c.t, srv: c.srv, e: c.e,
		isAcked: map[request.ID]bool{}, nodes: map[request.ID][]int{},
		started: map[request.ID]bool{}, replies: map[int64]int{}}
	c.open(proto.Message{Type: proto.MsgConnect})
	c.pump(func(m *proto.Message) bool { return m.Type == proto.MsgConnected })
	if c.eof {
		c.t.Fatal("connect got no connected frame")
	}
}

// resume reconnects a dropped wire. Once the engine's clock has passed the
// grace window the server no longer holds the session; a session it does
// hold resumes. One it does not (expired, or killed by the RMS while
// dropped) gets the "resume rejected" kill, no frame follows it, and the
// client starts a fresh session.
func (c *wireClient) resume() {
	c.dropped = false
	held := c.srv.lookupSession(c.token) != nil
	if held && c.e.Now() >= c.droppedAt+wireGrace.Seconds() {
		c.t.Fatalf("session held at %v, past the grace window of its drop at %v", c.e.Now(), c.droppedAt)
	}
	c.open(proto.Message{Type: proto.MsgConnect, Resume: c.token})
	if held {
		c.pump(func(m *proto.Message) bool { return m.Type == proto.MsgConnected })
		if c.eof {
			c.t.Fatal("the resume of a held session got no connected frame")
		}
		return
	}
	f, ok := <-c.frames
	if !ok || f.err != nil || f.m.Type != proto.MsgKill || !strings.HasPrefix(f.m.Reason, "resume rejected") {
		c.t.Fatalf("the resume of a session the server no longer holds got %+v (open %v)", f, ok)
	}
	if f, ok := <-c.frames; ok {
		c.t.Fatalf("frame after the resume's kill: %+v", f)
	}
	c.hangUp(false)
	c.dial()
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
// dropped wire resumes first; a killed session's connection closes instead
// of answering, and the client reconnects fresh.
func (c *wireClient) sync() {
	if c.dropped {
		c.resume()
	}
	if !c.eof {
		c.call(proto.Message{Type: proto.MsgPing})
	}
	if c.eof {
		c.dial()
	}
}

// hangUp ends the connection, with a bye (the session is torn down) or
// without, and waits for the server's handler to return. After a bye the
// server no longer holds the session, and the backend's is disconnected,
// unless the RMS killed it first.
func (c *wireClient) hangUp(bye bool) {
	ws := c.srv.lookupSession(c.token)
	if bye {
		if ws == nil {
			c.t.Fatal("bye on a session the server does not hold")
		}
		c.send(proto.Message{Type: proto.MsgBye})
		c.pump(func(*proto.Message) bool { return false }) // until the server closes
	}
	c.conn.Close()
	for range c.frames {
	}
	c.eof = true
	select {
	case <-c.handled:
	case <-time.After(10 * time.Second):
		c.t.Fatal("the server's handler never returned")
	}
	if bye && !c.killed {
		// A disconnected backend session refuses every call; done() of an
		// unknown request changes nothing on a live one.
		if err := ws.sess.Done(0, nil); c.srv.lookupSession(c.token) != nil || err == nil || !strings.Contains(err.Error(), "terminated") {
			c.t.Fatalf("bye: the session was never torn down (done: %v)", err)
		}
	}
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
// Server.handle, against a 2-shard Federator on the simulated clock; the
// server's grace window runs on the same engine. The input decodes into calls: request() with a fuzzed
// cluster, size, duration, type, relation and related_to; done() on an own,
// foreign or invented request with its nodes, part of them, duplicated or
// invented ones; an idempotent call and its retry; ping; an unknown message
// type; bye, then a fresh session; a dropped wire, which the client's next
// operation resumes; and an engine advance, which may pass the grace window
// of a dropped session (the server runs on the engine's clock). Nothing may
// panic, and: every server frame parses; every call gets exactly one ack or
// error by seq (unless a kill closed the session first); a retried
// idempotency token returns the original outcome; a session sees starts
// only for requests it was acked, and no non-replay start twice; a bye
// tears its session down (server and backend); a session
// whose grace window passed is no longer held, its resume gets the "resume
// rejected" kill and no frame follows it; a held session resumes; and
// Federator.CheckInvariants holds after every operation, grace expiries
// included.
func FuzzWireSessions(f *testing.F) {
	f.Add([]byte{0, 1, 3, 1, 1, 1, 0, 7, 4, 7, 4, 1, 0, 0, 0, 5, 6})
	f.Add([]byte{0, 0, 5, 5, 2, 1, 0, 0, 8, 0, 6, 1, 3, 0, 2, 0, 7, 9, 1, 0, 0, 1, 7, 9})
	f.Add([]byte{0, 1, 3, 1, 1, 1, 0, 7, 9, 6, 7, 2, 7, 4, 1, 0, 1, 1, 3, 5})
	f.Add([]byte{16, 0, 4, 2, 3, 2, 0, 7, 5, 8, 0, 11, 2, 2, 2, 1, 7, 3, 13, 12, 15, 14})
	f.Add([]byte{0, 0, 3, 2, 1, 0, 0, 7, 4, 6})
	f.Add([]byte("0020120701"))
	f.Add([]byte{0, 0, 5, 1, 1, 0, 0, 6, 15, 2, 3}) // a drop past its grace window
	f.Add([]byte{0, 0, 5, 1, 1, 0, 0, 6, 15, 0, 3}) // a drop resumed within it
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
		srv := NewServer(fed)
		srv.Logf = func(string, ...any) {}
		srv.clk = clock.SimClock{E: e}
		srv.Grace = wireGrace
		clients := make([]*wireClient, 3)
		for i := range clients {
			clients[i] = &wireClient{t: t, srv: srv, e: e}
			clients[i].dial()
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
				c.dial()
			case 6: // the wire drops; the client's next operation resumes
				c.hangUp(false)
				c.dropped, c.droppedAt = true, e.Now()
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
