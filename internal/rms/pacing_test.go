package rms

import (
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/request"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// slowApp is an AppHandler whose OnViews takes delay seconds: it steps the
// engine, so the round timers that fall due during a delivery fire inside
// it, as they do on a timer goroutine under clock.RealClock. It records when
// each call began and ended.
type slowApp struct {
	e     *sim.Engine
	delay float64
	spans [][2]float64
}

func (a *slowApp) OnViews(_, _ view.View) {
	from := a.e.Now()
	a.e.Run(from + a.delay)
	a.spans = append(a.spans, [2]float64{from, a.e.Now()})
}
func (a *slowApp) OnStart(request.ID, []int) {}
func (a *slowApp) OnKill(string)             {}

// A round never overlaps the delivery of the previous round's notifications
// and starts only after the server has then been idle for one interval, so
// the calls made meanwhile share one round.
func TestRoundsWaitOutDelivery(t *testing.T) {
	const interval = 1.0
	e := sim.NewEngine()
	s := NewServer(Config{
		Clusters:        map[view.ClusterID]int{c0: 1000},
		ReschedInterval: interval,
		Clock:           clock.SimClock{E: e},
	})
	// A delivery two and a half intervals long: a round that waited only for
	// the delivery to end, or only for the interval timer that fell due in
	// it, would start less than an interval after it.
	app := &slowApp{e: e, delay: 2.5 * interval}
	sess := connect(s, app)

	// A request every quarter interval, each of which changes the views:
	// without the rule this is a round per interval, on top of one another.
	const requests = 80
	for i := 0; i < requests; i++ {
		e.At(float64(i)*interval/4, "submit", func() {
			if _, err := submit(sess, RequestSpec{Cluster: c0, N: 1, Duration: 1000, Type: request.NonPreempt}); err != nil {
				t.Error(err)
			}
		})
	}
	e.Run(requests*interval/4 + 10*interval) // the last round and its delivery

	// 20 intervals of requests at one round per 3.5 intervals.
	if n := len(app.spans); n < 3 || n > requests/8 {
		t.Fatalf("%d deliveries for %d requests", n, requests)
	}
	for i := 1; i < len(app.spans); i++ {
		if gap := app.spans[i][0] - app.spans[i-1][1]; gap < interval {
			t.Errorf("delivery %d began %v after delivery %d ended, want at least %v", i, gap, i-1, interval)
		}
	}
}
