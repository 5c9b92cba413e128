package transport

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/view"
)

const (
	cEast = view.ClusterID("east")
	cWest = view.ClusterID("west")
)

// startFederatedServer runs a 2-shard federation behind the TCP transport.
func startFederatedServer(t *testing.T, workers int) (*federation.Federator, string) {
	t.Helper()
	f := federation.New(federation.Config{
		Clusters:        map[view.ClusterID]int{cEast: 16, cWest: 16},
		Shards:          2,
		ReschedInterval: 0.01,
		Clock:           clock.NewRealClock(),
	})
	srv := NewServer(f)
	srv.Logf = func(string, ...any) {}
	srv.Workers = workers
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return f, addr
}

func TestFederatedRoutingOverTCP(t *testing.T) {
	f, addr := startFederatedServer(t, 0)
	if f.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", f.NumShards())
	}
	app := newClientApp()
	c, err := Dial(addr, app)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Views arrive: each shard's segment, patched into the client's pair.
	app.waitFor(t, "initial views", func() bool { return app.views > 0 })

	// Requests on clusters owned by different shards, one session.
	idE, err := c.Request(rms.RequestSpec{Cluster: cEast, N: 3, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	idW, err := c.Request(rms.RequestSpec{Cluster: cWest, N: 5, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if idE == idW {
		t.Fatalf("federated request IDs collide: %d", idE)
	}
	app.waitFor(t, "both starts", func() bool {
		return len(app.starts[idE]) == 3 && len(app.starts[idW]) == 5
	})
	if err := c.Done(idE, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Done(idW, nil); err != nil {
		t.Fatal(err)
	}
	// Cross-shard relations are accepted over the wire too: the federation's
	// reservation coordinator places a hold instead of rejecting.
	id2, err := c.Request(rms.RequestSpec{Cluster: cEast, N: 1, Duration: 3600, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(rms.RequestSpec{Cluster: cWest, N: 1, Duration: 3600, Type: request.NonPreempt,
		RelatedHow: request.Next, RelatedTo: id2}); err != nil {
		t.Errorf("cross-shard relation over the wire = %v, want reservation acceptance", err)
	}
}

// TestWorkerPoolServesMoreConnsThanWorkers verifies the bounded dispatch
// pool: 2 workers serve 5 concurrent sessions (connections beyond the bound
// queue until a worker frees up when an earlier client disconnects).
func TestWorkerPoolServesMoreConnsThanWorkers(t *testing.T) {
	_, addr := startFederatedServer(t, 2)
	clusters := []view.ClusterID{cEast, cWest}
	for i := 0; i < 5; i++ {
		app := newClientApp()
		c, err := Dial(addr, app)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		id, err := c.Request(rms.RequestSpec{Cluster: clusters[i%2], N: 1, Duration: math.Inf(1), Type: request.Preempt})
		if err != nil {
			t.Fatalf("conn %d request: %v", i, err)
		}
		if err := c.Done(id, nil); err != nil {
			t.Fatalf("conn %d done: %v", i, err)
		}
		// Free the worker before the next client needs it.
		c.Close()
	}
}

// TestWorkerPoolConcurrentSessions hammers a pooled federated server from
// parallel clients; meaningful under -race.
func TestWorkerPoolConcurrentSessions(t *testing.T) {
	_, addr := startFederatedServer(t, 4)
	clusters := []view.ClusterID{cEast, cWest}
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := newClientApp()
			c, err := Dial(addr, app)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				id, err := c.Request(rms.RequestSpec{Cluster: clusters[i%2], N: 1, Duration: math.Inf(1), Type: request.Preempt})
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
				if err := c.Done(id, nil); err != nil {
					errs <- fmt.Errorf("client %d done: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
