// Package netchaos is the wire-level counterpart of internal/chaos: where
// chaos plans crash scheduler shards inside the simulator, netchaos breaks
// the network between real transport clients and a real transport server. A
// seeded plan of connection faults (sever, partition, half-open, delay) is
// drawn by the same chaos.Renewal process as a chaos.Plan — same seed ⇒ same
// schedule, fingerprinted by chaos.Hash — and a Proxy applies it to live TCP
// connections, so the reconnect/resume machinery of internal/transport is
// exercised against real sockets instead of mocks.
package netchaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coormv2/internal/chaos"
	"coormv2/internal/clock"
	"coormv2/internal/stats"
)

// Kind enumerates the wire fault kinds.
type Kind int

const (
	// Sever cuts every live proxied connection at the fault instant;
	// new connections go through immediately (the reconnect path races
	// nothing).
	Sever Kind = iota
	// Partition cuts every live connection and refuses new ones for the
	// fault's duration — the server is unreachable, reconnects back off.
	Partition
	// HalfOpen accepts new connections but forwards nothing for the
	// duration: the classic wedged peer that only deadlines and
	// heartbeats can detect.
	HalfOpen
	// Delay adds fixed latency to every forwarded chunk for the duration.
	Delay
)

var kindNames = [...]string{"sever", "partition", "half-open", "delay"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Fault is one scheduled wire fault. Times are seconds from Proxy.Start.
type Fault struct {
	At   float64
	Kind Kind
	Dur  float64 // ignored by Sever (instantaneous)
}

// String renders the fault deterministically for traces.
func (f Fault) String() string {
	if f.Kind == Sever {
		return fmt.Sprintf("t=%g sever", f.At)
	}
	return fmt.Sprintf("t=%g %s dur=%g", f.At, f.Kind, f.Dur)
}

// Config parametrizes a fault plan. All times are seconds.
type Config struct {
	// Seed drives every random draw; same seed ⇒ same plan.
	Seed int64
	// MeanBetween is the mean gap between consecutive faults
	// (exponential renewal, like chaos.Config.MTTF).
	MeanBetween float64
	// MeanDur is the mean duration of partition/half-open/delay faults
	// (exponential).
	MeanDur float64
	// Horizon bounds the plan: no fault is scheduled at or after it.
	Horizon float64
	// MaxFaults caps the plan length; 0 means bounded by Horizon alone.
	MaxFaults int
}

// Plan derives the fault schedule: a chaos.Renewal process of exponential
// gaps, each fault's kind drawn uniformly and its duration exponentially, the
// next gap starting when the fault ends — all from one seeded PRNG, so the
// schedule, and hence its chaos.Hash, is a pure function of the seed.
func Plan(cfg Config) []Fault {
	rng := stats.NewRand(cfg.Seed)
	var plan []Fault
	chaos.Renewal(rng, cfg.MeanBetween, cfg.Horizon, cfg.MaxFaults, func(t float64) float64 {
		f := Fault{At: t, Kind: Kind(rng.Intn(4))}
		if f.Kind != Sever {
			f.Dur = cfg.MeanDur * rng.ExpFloat64()
		}
		plan = append(plan, f)
		return f.Dur
	})
	return plan
}

// Proxy is an in-process TCP proxy between transport clients and a
// transport server that can sever, partition, half-open, and delay the
// wire — manually or on a seeded plan. All fault controls are safe for
// concurrent use.
type Proxy struct {
	backend string
	ln      net.Listener

	mu          sync.Mutex
	pipes       map[net.Conn]net.Conn // client conn → backend conn
	held        map[net.Conn]struct{} // half-open accepted-but-unforwarded conns
	partitioned bool
	halfOpen    bool
	delay       time.Duration
	closed      bool
	timers      []clock.Timer
	wg          sync.WaitGroup

	severed atomic.Int64 // connections cut by Sever/Partition
	held64  atomic.Int64 // connections held half-open
}

// NewProxy creates a proxy fronting the given backend address. Call
// Listen, then Start.
func NewProxy(backend string) *Proxy {
	return &Proxy{
		backend: backend,
		pipes:   make(map[net.Conn]net.Conn),
		held:    make(map[net.Conn]struct{}),
	}
}

// Listen binds the proxy (use ":0" for an ephemeral port) and starts
// accepting; it returns the address clients should dial.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netchaos: %w", err)
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return ln.Addr().String(), nil
}

// Start arms a fault plan on the wall clock: fault f fires f.At seconds
// from now, and durable faults clear themselves f.Dur later. The end of a
// durable fault is armed by its start, so however late the runtime runs the
// two, an end never overtakes its start and leaves the fault on for good.
func (p *Proxy) Start(plan []Fault, delayEach time.Duration) {
	during := func(f Fault, on, off func()) {
		p.after(f.At, func() { on(); p.after(f.Dur, off) })
	}
	for _, f := range plan {
		switch f.Kind {
		case Sever:
			p.after(f.At, p.Sever)
		case Partition:
			during(f, func() { p.SetPartitioned(true) }, func() { p.SetPartitioned(false) })
		case HalfOpen:
			during(f, func() { p.SetHalfOpen(true) }, func() { p.SetHalfOpen(false) })
		case Delay:
			during(f, func() { p.SetDelay(delayEach) }, func() { p.SetDelay(0) })
		}
	}
}

// after runs fn the given number of seconds from now, unless the proxy is
// closed by then. The wall clock clamps the delay: a fault past
// time.Duration's range (≈ 292 years) never fires, rather than at once.
func (p *Proxy) after(seconds float64, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.timers = append(p.timers, clock.NewRealClock().AfterFunc(seconds, "netchaos.fault", fn))
	}
}

// Sever cuts every live proxied (and half-open held) connection.
func (p *Proxy) Sever() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, 2*len(p.pipes)+len(p.held))
	for c, b := range p.pipes {
		conns = append(conns, c, b)
	}
	for c := range p.held {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if len(conns) > 0 {
		p.severed.Add(1)
	}
	for _, c := range conns {
		c.Close()
	}
}

// SetPartitioned toggles the partition: while set, live connections are
// cut and new ones are refused.
func (p *Proxy) SetPartitioned(on bool) {
	p.mu.Lock()
	p.partitioned = on
	p.mu.Unlock()
	if on {
		p.Sever()
	}
}

// SetHalfOpen toggles half-open mode: while set, new connections are
// accepted but never forwarded to the backend.
func (p *Proxy) SetHalfOpen(on bool) {
	p.mu.Lock()
	p.halfOpen = on
	var release []net.Conn
	if !on {
		// Leaving half-open mode drops the held connections: their
		// handshakes have long timed out client-side.
		for c := range p.held {
			release = append(release, c)
		}
		p.held = make(map[net.Conn]struct{})
	}
	p.mu.Unlock()
	for _, c := range release {
		c.Close()
	}
}

// SetDelay sets the per-chunk forwarding latency (0 disables).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// Held reports how many connections were held half-open.
func (p *Proxy) Held() int64 { return p.held64.Load() }

// Close stops the plan timers, the listener, and every connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	timers := p.timers
	p.timers = nil
	conns := make([]net.Conn, 0, 2*len(p.pipes)+len(p.held))
	for c, b := range p.pipes {
		conns = append(conns, c, b)
	}
	for c := range p.held {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if p.ln != nil {
		p.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		switch {
		case p.closed:
			p.mu.Unlock()
			conn.Close()
			return
		case p.partitioned:
			p.mu.Unlock()
			conn.Close()
			continue
		case p.halfOpen:
			p.held[conn] = struct{}{}
			p.mu.Unlock()
			p.held64.Add(1)
			continue
		}
		p.mu.Unlock()

		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			backend.Close()
			return
		}
		p.pipes[conn] = backend
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(conn, backend)
		go p.pipe(backend, conn)
	}
}

// pipe copies src→dst chunk by chunk, applying the current delay, and
// tears the pair down when either side dies.
func (p *Proxy) pipe(src, dst net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.mu.Lock()
			d := p.delay
			p.mu.Unlock()
			if d > 0 {
				time.Sleep(d)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	src.Close()
	dst.Close()
	p.mu.Lock()
	delete(p.pipes, src)
	delete(p.pipes, dst)
	p.mu.Unlock()
}
