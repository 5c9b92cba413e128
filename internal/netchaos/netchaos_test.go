package netchaos

import (
	"net"
	"testing"
	"time"

	"coormv2/internal/chaos"
)

func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, MeanBetween: 0.3, MeanDur: 0.2, Horizon: 10}
	a, b := Plan(cfg), Plan(cfg)
	if len(a) == 0 {
		t.Fatal("empty plan")
	}
	if chaos.Hash(a) != chaos.Hash(b) {
		t.Fatal("same seed produced different plans")
	}
	cfg.Seed = 43
	if chaos.Hash(Plan(cfg)) == chaos.Hash(a) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanRespectsCaps(t *testing.T) {
	cfg := Config{Seed: 7, MeanBetween: 0.1, MeanDur: 0.1, Horizon: 100, MaxFaults: 5}
	plan := Plan(cfg)
	if len(plan) != 5 {
		t.Fatalf("MaxFaults=5, got %d faults", len(plan))
	}
	for _, f := range plan {
		if f.At >= cfg.Horizon {
			t.Fatalf("fault at %g beyond horizon", f.At)
		}
	}
	if Plan(Config{}) != nil {
		t.Fatal("zero config should produce no plan")
	}
}

// TestPlansPinned pins the wire plan of coorm-exp's default netchaos
// configuration to the values netchaos's own renewal loop produced before
// chaos.Renewal replaced it: same length and same chaos.Hash for seeds 1–3.
func TestPlansPinned(t *testing.T) {
	want := []struct {
		n    int
		hash uint64
	}{{8, 0xee23f3120928aac0}, {7, 0x10192fdddea19c56}, {4, 0xb00e5ced3ac842fb}}
	for i, w := range want {
		p := Plan(Config{Seed: int64(i + 1), MeanBetween: 0.15, MeanDur: 0.0375, Horizon: 1.2, MaxFaults: 8})
		if len(p) != w.n || chaos.Hash(p) != w.hash {
			t.Errorf("seed %d: wire plan %d %016x, want %d %016x", i+1, len(p), chaos.Hash(p), w.n, w.hash)
		}
	}
}

// echoServer accepts connections and echoes bytes back.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						c.Close()
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func roundTrip(t *testing.T, conn net.Conn) error {
	t.Helper()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write([]byte("hi")); err != nil {
		return err
	}
	buf := make([]byte, 2)
	_, err := conn.Read(buf)
	return err
}

func TestProxyForwardsAndSevers(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p := NewProxy(backend)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn); err != nil {
		t.Fatalf("round trip through proxy: %v", err)
	}

	p.Sever()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded after sever")
	}
	if p.severed.Load() == 0 {
		t.Fatal("sever not counted")
	}

	// New connections work immediately after a sever.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := roundTrip(t, conn2); err != nil {
		t.Fatalf("round trip after sever: %v", err)
	}
}

func TestProxyPartitionAndHalfOpen(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p := NewProxy(backend)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.SetPartitioned(true)
	conn, err := net.Dial("tcp", addr)
	if err == nil {
		// The dial may complete before the proxy closes its side; the
		// round trip must fail either way.
		if rerr := roundTrip(t, conn); rerr == nil {
			t.Fatal("round trip succeeded while partitioned")
		}
		conn.Close()
	}
	p.SetPartitioned(false)

	p.SetHalfOpen(true)
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(t, conn2); err == nil {
		t.Fatal("round trip succeeded while half-open")
	}
	conn2.Close()
	p.SetHalfOpen(false)
	if p.Held() == 0 {
		t.Fatal("half-open connection not counted")
	}

	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	if err := roundTrip(t, conn3); err != nil {
		t.Fatalf("round trip after clearing faults: %v", err)
	}
}

func TestProxyDelay(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p := NewProxy(backend)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	p.SetDelay(50 * time.Millisecond)
	startT := time.Now()
	if err := roundTrip(t, conn); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(startT); d < 50*time.Millisecond {
		t.Fatalf("round trip took %v, expected >= 50ms of injected delay", d)
	}
	p.SetDelay(0)
}

// TestPlanFaultsAlwaysClear arms many partitions and half-opens too short
// for their two ends to be told apart by the timer: whatever order the
// runtime fires them in, every fault must be over once the plan is, and the
// proxy forwards again. (With the end armed independently of the start, an
// end that overtook its start left the fault on for good — the netchaos
// experiment then sat out its 30 s reconnect window on a loaded box.)
// A fault planned past time.Duration's range (≈ 292 years) stays pending:
// converted unclamped, its delay would wrap negative and fire at once.
func TestProxyFarFaultsStayPending(t *testing.T) {
	backend, stop := echoServer(t)
	defer stop()
	p := NewProxy(backend)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start([]Fault{{At: 1e11, Kind: Sever}, {At: 1e12, Dur: 1e12, Kind: Partition}}, 0)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := roundTrip(t, conn); err != nil {
		t.Fatalf("round trip through proxy: %v", err)
	}
	p.mu.Lock()
	timers := p.timers
	p.mu.Unlock()
	if len(timers) != 2 {
		t.Fatalf("%d fault timers armed, want 2", len(timers))
	}
	for i, tm := range timers {
		if !tm.Stop() {
			t.Errorf("fault timer %d fired", i)
		}
	}
}

func TestPlanFaultsAlwaysClear(t *testing.T) {
	backend, closeBackend := echoServer(t)
	defer closeBackend()
	p := NewProxy(backend)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var plan []Fault
	for i := 0; i < 400; i++ {
		plan = append(plan, Fault{At: float64(i) * 1e-4, Kind: Partition + Kind(i%2)})
	}
	p.Start(plan, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			err = roundTrip(t, conn)
			conn.Close()
		}
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy still faulted 5 s after a 40 ms plan: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
