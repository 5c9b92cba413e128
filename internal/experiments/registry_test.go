package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// section frames a report the way coorm-exp prints it.
func section(x Experiment, rep *Report) string {
	return "== " + x.Title + " ==\n" + rep.Text() + "\n"
}

// decode checks that rep's JSON export parses back to the same table and
// returns the decoded generic form for key-level assertions.
func decode(t *testing.T, rep *Report) map[string]any {
	t.Helper()
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("%s: JSON does not parse: %v", rep.Name, err)
	}
	if !reflect.DeepEqual(back.Header, rep.Header) || !reflect.DeepEqual(back.Rows, rep.Rows) {
		t.Errorf("%s: JSON table differs from the text table", rep.Name)
	}
	var generic map[string]any
	if err := json.Unmarshal(js, &generic); err != nil {
		t.Fatal(err)
	}
	return generic
}

// histograms returns the obs.histograms object of a decoded report.
func histograms(doc map[string]any) map[string]any {
	o, _ := doc["obs"].(map[string]any)
	h, _ := o["histograms"].(map[string]any)
	return h
}

func TestReportRenderings(t *testing.T) {
	rep := &Report{
		Name:   "demo",
		Notes:  []string{"a note"},
		Header: []string{"k", "value"},
		Rows:   [][]string{{"x", "1"}, {"long-key", "2"}},
	}
	want := "a note\n" +
		"# k         value  \n" +
		"  x         1      \n" +
		"  long-key  2      \n"
	if got := rep.Text(); got != want {
		t.Errorf("Text() =\n%q\nwant\n%q", got, want)
	}
	doc := decode(t, rep)
	if doc["name"] != "demo" {
		t.Errorf("JSON name = %v", doc["name"])
	}
	if _, ok := doc["obs"]; ok {
		t.Error("a report without a snapshot must omit obs")
	}
	js, _ := rep.JSON()
	if !bytes.HasSuffix(js, []byte("}\n")) {
		t.Errorf("JSON must end in a newline: %q", js[len(js)-4:])
	}
}

// TestExperimentsGolden renders every registered simulated-clock experiment
// at the CLI defaults with -seed 42 and requires the concatenation to match,
// byte for byte, what `coorm-exp -exp all -seed 42` printed before the
// experiment table moved here (netchaos, whose timing columns are wall-clock
// measurements, is covered by TestNetChaosReport instead). Each report's
// JSON export, observability snapshot included, must also hash to its line
// of testdata/all_seed42.json.sha256 ("<name> <sha256>"), and the chaos and
// tenants reports must carry a non-empty snapshot.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at reduced scale (≈12 s)")
	}
	want, err := os.ReadFile("testdata/all_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	sums, err := os.ReadFile("testdata/all_seed42.json.sha256")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		wantSum[name] = sum
	}
	o := DefaultOptions()
	o.Seed = 42
	var got strings.Builder
	for _, x := range Experiments {
		if x.Name == "netchaos" {
			continue
		}
		rep, err := x.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", x.Name, err)
		}
		if rep.Name != x.Name {
			t.Errorf("experiment %q reports as %q", x.Name, rep.Name)
		}
		got.WriteString(section(x, rep))
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(js); hex.EncodeToString(sum[:]) != wantSum[x.Name] {
			t.Errorf("%s: JSON report hashes to %x, testdata/all_seed42.json.sha256 has %q", x.Name, sum, wantSum[x.Name])
		}
		doc := decode(t, rep)
		if (x.Name == "chaos" || x.Name == "tenants") && len(histograms(doc)) == 0 {
			t.Errorf("%s: JSON report has no obs.histograms", x.Name)
		}
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("output differs from testdata/all_seed42.golden at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// checkMatrixGolden pins one chaos-matrix run against its line of
// testdata/chaos_matrix.golden, keyed by the (sub)test's name: the
// event-stream fingerprint, the fault-trace length and the job and recovery
// counters. The matrix tests call it on the run they already make, so a
// refactor that claims "same behaviour" is held to same-seed identical
// hashes by the suite rather than by a one-off comparison. To regenerate
// after an intended change, empty the file and collect the failures:
//
//	go test ./internal/experiments -run Matrix | sed -n 's/^ *got: //p' | sort > testdata/chaos_matrix.golden
func checkMatrixGolden(t *testing.T, res *replayResult) {
	t.Helper()
	golden, err := os.ReadFile("testdata/chaos_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%s hash=%016x trace=%d completed=%d killed=%d dropped=%d gangs=%d/%d/%d",
		t.Name(), res.EventHash, len(res.Trace), res.Completed, res.Killed, res.DroppedRequests,
		res.GangsCommitted, res.GangsAborted, res.GangsRetried)
	for i, want := range strings.Split(string(golden), "\n") {
		if !strings.HasPrefix(want, t.Name()+" ") {
			continue
		}
		if got != want {
			t.Fatalf("output differs from testdata/chaos_matrix.golden at line %d:\n got: %s\nwant: %s", i+1, got, want)
		}
		return
	}
	t.Fatalf("testdata/chaos_matrix.golden has no line for this run:\n got: %s", got)
}

// TestNetChaosReport pins the wire-resilience table's invariant columns:
// every job finishes, and reconnect+resume loses no acknowledged request
// and delivers no start twice.
func TestNetChaosReport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scenario")
	}
	var x Experiment
	for _, x = range Experiments {
		if x.Name == "netchaos" {
			break
		}
	}
	rep, err := x.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	doc := decode(t, rep)
	if doc["name"] != "netchaos" || len(rep.Rows) != 4 || len(histograms(doc)) == 0 {
		t.Fatalf("unexpected report: name %v, %d rows, %d histograms", doc["name"], len(rep.Rows), len(histograms(doc)))
	}
	col := map[string]int{}
	for i, h := range rep.Header {
		col[h] = i
	}
	for _, row := range rep.Rows {
		if row[col["done"]] != "6" {
			t.Errorf("row %v: not all jobs done", row)
		}
		if row[col["mode"]] == "resume" && (row[col["lost-acks"]] != "0" || row[col["dup-starts"]] != "0") {
			t.Errorf("resume row %v lost acks or duplicated starts", row)
		}
	}
}
