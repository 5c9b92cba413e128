package rms

import (
	"sync"
	"testing"
	"time"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// slowApp is an AppHandler whose OnViews takes a while, recording when each
// call began and ended.
type slowApp struct {
	delay time.Duration

	mu    sync.Mutex
	spans [][2]time.Time
}

func (a *slowApp) OnViews(_, _ view.View) {
	from := time.Now()
	time.Sleep(a.delay)
	a.mu.Lock()
	a.spans = append(a.spans, [2]time.Time{from, time.Now()})
	a.mu.Unlock()
}
func (a *slowApp) OnStart(request.ID, []int) {}
func (a *slowApp) OnKill(string)             {}

// Under a real clock a round never overlaps the delivery of the previous
// round's notifications and starts only after the server has then been idle
// for one interval, so the calls made meanwhile share one round.
func TestRealClockRoundsWaitOutDelivery(t *testing.T) {
	const interval = 5 * time.Millisecond
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 1000},
		ReschedInterval: interval.Seconds(),
		Clock:           clock.NewRealClock(),
	})
	defer s.Stop()
	app := &slowApp{delay: 3 * interval} // a delivery three intervals long
	sess := connect(s, app)

	// A request every millisecond, each of which changes the views: without
	// the rule this is a round per interval, on top of one another.
	const requests = 80
	for i := 0; i < requests; i++ {
		if _, err := submit(sess, RequestSpec{Cluster: c0, N: 1, Duration: 1000, Type: request.NonPreempt}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(6 * interval) // the last round and its delivery

	app.mu.Lock()
	defer app.mu.Unlock()
	// ≥ 80 ms of requests at one round per 4 intervals (20 ms).
	if n := len(app.spans); n < 3 || n > requests/4 {
		t.Fatalf("%d deliveries for %d requests", n, requests)
	}
	for i := 1; i < len(app.spans); i++ {
		// Timers are never early; the clock's float seconds round by less than 1 µs.
		if gap := app.spans[i][0].Sub(app.spans[i-1][1]); gap < interval-time.Microsecond {
			t.Errorf("delivery %d began %v after delivery %d ended, want at least %v", i, gap, i-1, interval)
		}
	}
}
