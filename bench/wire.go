package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/proto"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// wireFleetSessions is the standing fleet of wire_fleet. They are passive
// drains — raw TCP connections that submit their standing requests and then
// only discard what the server pushes — because a fleet of real
// transport.Clients spent two thirds of the process's CPU decoding JSON in
// the load generator.
const wireFleetSessions = 64

// wireInterval is wire_fleet's re-scheduling interval: 1 ms of real time.
const wireInterval = 0.001

// wireFleet is the wire_fleet fixture: a federated server on loopback TCP
// under clock.RealClock, the drains, and one transport.Client driver.
type wireFleet struct {
	fed  *federation.Federator
	srv  *transport.Server
	tr   *tracer
	cids []view.ClusterID

	serveErr chan error
	drains   sync.WaitGroup
	conns    []net.Conn
	rxBytes  atomic.Int64 // read by the drain sockets
	rxFrames atomic.Int64

	driver *transport.Client
	h      *driverHandler
	timer  *time.Timer
	nextOp int
	offset int
}

type startEvent struct {
	id request.ID
	at time.Time
}

// driverHandler is the driver's client-side handler.
type driverHandler struct {
	starts chan startEvent // buffered: OnStart never blocks the dispatcher
	kills  atomic.Int64
	views  atomic.Int64
	tr     *tracer
}

func (h *driverHandler) OnViews(_, _ view.View) { h.views.Add(1) }
func (h *driverHandler) OnKill(string)          { h.kills.Add(1) }
func (h *driverHandler) OnStart(id request.ID, _ []int) {
	now := time.Now()
	if h.tr != nil && h.tr.on.Load() && h.tr.opReqID.Load() == int64(id) {
		if pushed := h.tr.opPushStartEnd.Load(); pushed > 0 {
			h.tr.record(spStartDeliver, pushed, h.tr.now())
		}
	}
	h.starts <- startEvent{id, now}
}

// frameCounter discards what a drain socket receives, counting bytes and
// newline-terminated frames.
type frameCounter struct{ f *wireFleet }

func (c frameCounter) Write(b []byte) (int, error) {
	c.f.rxBytes.Add(int64(len(b)))
	c.f.rxFrames.Add(int64(bytes.Count(b, []byte{'\n'})))
	return len(b), nil
}

func buildWireFleet(seed int64, tr *tracer) (*wireFleet, error) {
	rng := rand.New(rand.NewSource(seed))
	f := &wireFleet{tr: tr, serveErr: make(chan error, 1)}
	var backend transport.Backend
	f.fed, backend = newFleetFederation(clock.NewRealClock(), wireInterval, false, tr)
	f.cids, _ = fleetClusterIDs()
	f.offset = rng.Intn(fleetClusters)
	f.srv = transport.NewBackendServer(backend)
	f.srv.Logf = func(string, ...any) {}
	addr, err := f.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { f.serveErr <- f.srv.Serve() }()

	for i := 0; i < wireFleetSessions; i++ {
		if err := f.connectDrain(addr, rng, i); err != nil {
			f.close()
			return nil, fmt.Errorf("drain %d: %w", i, err)
		}
	}
	f.h = &driverHandler{starts: make(chan startEvent, 16), tr: tr}
	f.driver, err = transport.Dial(addr, f.h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.timer = time.NewTimer(time.Hour)
	return f, nil
}

// connectDrain opens one standing session: connect, the four standing
// requests (waiting for each ack, whose ID the next request relates to),
// then a goroutine that discards everything the server sends.
func (f *wireFleet) connectDrain(addr string, rng *rand.Rand, i int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	f.conns = append(f.conns, conn)
	r := bufio.NewReaderSize(conn, 64<<10)
	send := func(m proto.Message) error {
		data, err := m.Marshal()
		if err != nil {
			return err
		}
		_, err = conn.Write(append(data, '\n'))
		return err
	}
	// await reads frames until one of the wanted type arrives.
	await := func(want proto.MsgType, seq int64) (*proto.Message, error) {
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return nil, err
			}
			m, err := proto.Unmarshal(line)
			if err != nil {
				return nil, err
			}
			switch {
			case m.Type == proto.MsgError || m.Type == proto.MsgKill:
				return nil, fmt.Errorf("server said %s: %s", m.Type, m.Reason)
			case m.Type == want && m.Seq == seq:
				return m, nil
			}
		}
	}
	if err := send(proto.Message{Type: proto.MsgConnect}); err != nil {
		return err
	}
	if _, err := await(proto.MsgConnected, 0); err != nil {
		return err
	}
	var seq int64
	call := func(spec rms.RequestSpec) (request.ID, error) {
		seq++
		if err := send(proto.EncodeRequestSpec(spec, seq)); err != nil {
			return 0, err
		}
		ack, err := await(proto.MsgReqAck, seq)
		if err != nil {
			return 0, err
		}
		return request.ID(ack.ReqID), nil
	}
	if err := submitStanding(call, rng, i, f.cids[i%fleetClusters]); err != nil {
		return err
	}
	f.drains.Add(1)
	go func() {
		defer f.drains.Done()
		// Ends when close() closes the connection.
		_, _ = io.Copy(frameCounter{f}, r)
	}()
	return nil
}

// run drives n closed-loop operations: Request → wait for OnStart → Done.
// With a nil phase they are warm-up.
func (f *wireFleet) run(n int, p *phase) error {
	for i := 0; i < n; i++ {
		op := f.nextOp
		f.nextOp++
		lat, err := f.op(op)
		switch {
		case p == nil:
		case err != nil:
			p.fail()
		default:
			p.op(lat)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	return nil
}

func (f *wireFleet) op(op int) (time.Duration, error) {
	root := f.tr.beginOp(op)
	defer f.tr.endOp(root)
	spec := rms.RequestSpec{
		Cluster: f.cids[(f.offset+op/churnBlock)%fleetClusters],
		N:       1, Duration: 3600, Type: request.NonPreempt,
	}
	t0 := time.Now()
	tok := f.tr.begin(spClientReq)
	id, err := f.driver.Request(spec)
	f.tr.end(spClientReq, tok)
	if err != nil {
		return 0, err
	}
	f.timer.Reset(startLimit)
	var lat time.Duration
	select {
	case ev := <-f.h.starts:
		f.timer.Stop()
		if ev.id != id {
			return 0, fmt.Errorf("start of request %d while waiting for %d", ev.id, id)
		}
		lat = ev.at.Sub(t0)
	case <-f.timer.C:
		return 0, fmt.Errorf("request %d not started within %s", id, startLimit)
	}
	tok = f.tr.begin(spClientDone)
	err = f.driver.Done(id, nil)
	f.tr.end(spClientDone, tok)
	return lat, err
}

// drain waits for the round the last done() triggered, so that its frames
// are out of the write queues before the live heap is measured.
func (f *wireFleet) drain() error {
	f.quiesce()
	return nil
}

// quiesce waits until no shard has run a round for a while, so the shard
// schedulers can be read without racing a timer-driven round. Nothing
// triggers rounds once the driver has stopped: every standing request runs
// for 10^8 s.
func (f *wireFleet) quiesce() {
	rounds := func() (n int64) {
		for i := 0; i < f.fed.NumShards(); i++ {
			n += f.fed.Shard(i).SchedStats().Rounds
		}
		return n
	}
	last, stable := rounds(), 0
	for stable < 5 {
		time.Sleep(10 * time.Millisecond)
		if now := rounds(); now == last {
			stable++
		} else {
			last, stable = now, 0
		}
	}
}

func (f *wireFleet) check() error {
	select {
	case ev := <-f.h.starts:
		return fmt.Errorf("request %d started a second time", ev.id)
	default:
	}
	if n := f.h.kills.Load(); n != 0 {
		return fmt.Errorf("driver was killed %d times", n)
	}
	if n := f.driver.UnsolicitedErrors(); n != 0 {
		return fmt.Errorf("%d unsolicited server errors", n)
	}
	st := f.srv.Stats()
	for _, k := range []string{"evictions", "idem_replays", "errors_sent", "conn_drops", "resumes"} {
		if st[k] != 0 {
			return fmt.Errorf("transport %s = %d, want 0", k, st[k])
		}
	}
	return checkFederation(f.fed)
}

// close stops the driver, the server and the drains and waits for each.
func (f *wireFleet) close() {
	if f.driver != nil {
		_ = f.driver.Close()
	}
	f.srv.Close()
	<-f.serveErr
	for _, c := range f.conns {
		_ = c.Close()
	}
	f.drains.Wait()
	if f.timer != nil {
		f.timer.Stop()
	}
}

func (f *wireFleet) federator() *federation.Federator { return f.fed }
func (f *wireFleet) events() *eventStream             { return nil }
func (f *wireFleet) interval() float64                { return wireInterval }

// wireCounters are the wire-side counts the traced run reports per start.
type wireCounters struct {
	rxBytes, rxFrames, driverViews     int64
	evictions, idemReplays, errorsSent int64
}

func (f *wireFleet) counters() wireCounters {
	st := f.srv.Stats()
	return wireCounters{f.rxBytes.Load(), f.rxFrames.Load(), f.h.views.Load(),
		st["evictions"], st["idem_replays"], st["errors_sent"]}
}

func (c wireCounters) minus(o wireCounters) wireCounters {
	return wireCounters{c.rxBytes - o.rxBytes, c.rxFrames - o.rxFrames, c.driverViews - o.driverViews,
		c.evictions - o.evictions, c.idemReplays - o.idemReplays, c.errorsSent - o.errorsSent}
}
