// Command coormctl is a small CLI client for a coormd daemon: it submits a
// rigid job and reports its lifecycle, watches the views the RMS pushes, or
// pretty-prints the daemon's live observability snapshot.
//
// Usage:
//
//	coormctl -addr 127.0.0.1:7777 run -cluster main -n 8 -d 30
//	coormctl -addr 127.0.0.1:7777 watch -for 10
//	coormctl stats -obs 127.0.0.1:6060           # daemon started with -pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"coormv2/internal/obs"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/transport"
	"coormv2/internal/view"
)

// cliHandler prints notifications.
type cliHandler struct {
	out     io.Writer
	started chan []int
	killed  chan string
	verbose bool
}

func newHandler(out io.Writer, verbose bool) *cliHandler {
	return &cliHandler{out: out, started: make(chan []int, 1), killed: make(chan string, 1), verbose: verbose}
}

func (h *cliHandler) OnViews(np, p view.View) {
	if h.verbose {
		fmt.Fprintf(h.out, "views: non-preemptive %s | preemptive %s\n", np, p)
	}
}

func (h *cliHandler) OnStart(id request.ID, nodeIDs []int) {
	fmt.Fprintf(h.out, "request %d started on nodes %v\n", id, nodeIDs)
	select {
	case h.started <- nodeIDs:
	default:
	}
}

func (h *cliHandler) OnKill(reason string) {
	select {
	case h.killed <- reason:
	default:
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process. Exit code 2 is a usage error, 1 a
// failed command (including a session the RMS killed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("coormctl", stderr)
	addr := fs.String("addr", "127.0.0.1:7777", "daemon address")
	if err := fs.Parse(args); err != nil {
		return usageCode(err)
	}
	args = fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(stderr, "coormctl: need a subcommand: run | watch | stats")
		return 2
	}
	cmds := map[string]func(addr string, args []string, stdout, stderr io.Writer) int{
		"run": runCmd, "watch": watchCmd, "stats": statsCmd,
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "coormctl: unknown subcommand %q\n", args[0])
		return 2
	}
	return cmd(*addr, args[1:], stdout, stderr)
}

// newFlags returns a flag set that reports to stderr instead of exiting.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// usageCode is the exit code for a flag-parsing error the flag package has
// already reported.
func usageCode(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// fail reports a failed command and returns its exit code.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "coormctl: "+format+"\n", args...)
	return 1
}

func runCmd(addr string, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("run", stderr)
	cluster := fs.String("cluster", "default", "cluster to run on")
	n := fs.Int("n", 1, "node count")
	d := fs.Float64("d", 60, "duration in seconds")
	if err := fs.Parse(args); err != nil {
		return usageCode(err)
	}

	h := newHandler(stdout, false)
	c, err := transport.Dial(addr, h)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	defer c.Close()
	fmt.Fprintf(stdout, "connected as application %d\n", c.AppID())

	id, err := c.Request(rms.RequestSpec{
		Cluster: view.ClusterID(*cluster), N: *n, Duration: *d, Type: request.NonPreempt,
	})
	if err != nil {
		return fail(stderr, "request: %v", err)
	}
	fmt.Fprintf(stdout, "submitted rigid request %d (%d nodes, %gs)\n", id, *n, *d)

	select {
	case <-h.started:
	case reason := <-h.killed:
		return fail(stderr, "killed by RMS: %s", reason)
	case <-time.After(5 * time.Minute):
		return fail(stderr, "timed out waiting for the allocation")
	}
	fmt.Fprintln(stdout, "running; waiting for the allocation to end...")
	select {
	case reason := <-h.killed:
		return fail(stderr, "killed by RMS: %s", reason)
	case <-time.After(time.Duration(*d * float64(time.Second))):
	}
	if err := c.Done(id, nil); err != nil {
		// The RMS may have expired the allocation already; not fatal.
		fmt.Fprintf(stdout, "done: %v\n", err)
	}
	fmt.Fprintln(stdout, "finished")
	return 0
}

// statsCmd fetches /debug/obs from the daemon's pprof/obs side listener and
// renders the snapshot: counters, histogram quantiles, and the tail of the
// event ring. An event's req is the request ID the client holds — the one
// `coormctl run` printed — whichever shard reported it. -json dumps the raw
// snapshot instead (the exact bytes the daemon served).
func statsCmd(_ string, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("stats", stderr)
	obsAddr := fs.String("obs", "127.0.0.1:6060", "daemon pprof/obs listener address (coormd -pprof)")
	raw := fs.Bool("json", false, "print the raw JSON snapshot")
	events := fs.Int("events", 10, "trailing events to show (0 = none)")
	if err := fs.Parse(args); err != nil {
		return usageCode(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/obs", *obsAddr))
	if err != nil {
		return fail(stderr, "stats: %v (is coormd running with -pprof %s?)", err, *obsAddr)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(stderr, "stats: reading snapshot: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail(stderr, "stats: %s: %s", resp.Status, body)
	}
	if *raw {
		stdout.Write(body)
		return 0
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fail(stderr, "stats: decoding snapshot: %v", err)
	}

	fmt.Fprintf(stdout, "snapshot at t=%.3fs; %d events recorded\n", snap.Time, snap.EventsTotal)
	if len(snap.Counters) > 0 {
		fmt.Fprintln(stdout, "\ncounters:")
		keys := make([]string, 0, len(snap.Counters))
		for k := range snap.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-42s %d\n", k, snap.Counters[k])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(stdout, "\nhistograms:")
		keys := make([]string, 0, len(snap.Histograms))
		for k := range snap.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "  %-34s %9s %12s %12s %12s %12s\n", "name", "count", "p50", "p99", "p999", "max")
		for _, k := range keys {
			h := snap.Histograms[k]
			fmt.Fprintf(stdout, "  %-34s %9d %12.6g %12.6g %12.6g %12.6g\n", k, h.Count, h.P50, h.P99, h.P999, h.Max)
		}
	}
	if *events > 0 && len(snap.Events) > 0 {
		tail := snap.Events
		if len(tail) > *events {
			tail = tail[len(tail)-*events:]
		}
		fmt.Fprintf(stdout, "\nlast %d events:\n", len(tail))
		for _, e := range tail {
			fmt.Fprintf(stdout, "  #%-6d t=%-12.3f %-12s shard=%-8s app=%-4d cluster=%-8s req=%-4d v=%g\n",
				e.Seq, e.Time, e.Type, e.Shard, e.App, e.Cluster, e.Request, e.Value)
		}
	}
	return 0
}

func watchCmd(addr string, args []string, stdout, stderr io.Writer) int {
	fs := newFlags("watch", stderr)
	dur := fs.Float64("for", 30, "seconds to watch")
	if err := fs.Parse(args); err != nil {
		return usageCode(err)
	}

	h := newHandler(stdout, true)
	c, err := transport.Dial(addr, h)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	defer c.Close()
	fmt.Fprintf(stdout, "connected as application %d; watching views for %gs\n", c.AppID(), *dur)
	select {
	case reason := <-h.killed:
		return fail(stderr, "killed by RMS: %s", reason)
	case <-time.After(time.Duration(*dur * float64(time.Second))):
	}
	return 0
}
