package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailHonoursTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n     int
		ok    bool
		p, at float64
	}{
		{19, false, 0, 0},    // 10th of 19 leaves 9 beyond: not even a median
		{20, true, 50, 10},   // exactly ten beyond the median
		{99, true, 50, 50},   // p90 would leave 9
		{100, true, 90, 90},  // p90 leaves 10, p99 leaves 1
		{999, true, 90, 900}, // p99 leaves 9
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
		{100000, true, 99.99, 99990},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.ok || p != tc.p || v != tc.at {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", tc.n, p, v, ok, tc.p, tc.at, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 1: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

// The driver computes the spread with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestArrivalsArePureFunctionOfSeed(t *testing.T) {
	a, b := arrivals(7, 2000, 4000), arrivals(7, 2000, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 2000, 4000)) {
		t.Fatal("different seeds, same schedule")
	}
	gap := time.Second / 2000
	prev := time.Duration(0)
	for i, d := range a {
		if g := d - prev; g < gap/2 || g >= gap*3/2+1 {
			t.Fatalf("gap %d is %v, want within [%v, %v)", i, g, gap/2, gap*3/2)
		}
		prev = d
	}
	// The mean rate is the stated one to within the jitter's error.
	if mean := a[len(a)-1] / time.Duration(len(a)); mean < gap*97/100 || mean > gap*103/100 {
		t.Errorf("mean gap %v, want about %v", mean, gap)
	}
	if !reflect.DeepEqual(picks(3, 100, 8), picks(3, 100, 8)) {
		t.Error("picks: same seed, different draws")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// job [0,100] -> core.Do [10,90] -> Probe [20,40], Acquire [50,80]
	// -> RoundTrip [55,75].
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.Do", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "griddclient.Probe", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "griddclient.Acquire", Start: 50, End: 80},
		{ID: 4, Parent: 3, Name: "wire.RoundTrip", Start: 55, End: 75},
	}
	want := []int64{20, 30, 20, 10, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, s := range selfTimes(spans) {
		sum += s
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, want the root's %d: the budget must add up", sum, spans[0].dur())
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var off *recorder
	id := off.begin("job")
	off.end(id) // must not panic

	r := newRecorder(1, time.Now(), 8)
	r.job = 42
	a := r.begin("job")
	b := r.begin("core.Do")
	r.end(b)
	c := r.begin("after")
	r.end(c)
	r.end(a)
	if len(r.spans) != 3 || len(r.open) != 0 {
		t.Fatalf("spans %d open %d, want 3 and 0", len(r.spans), len(r.open))
	}
	if r.spans[b].Parent != a || r.spans[c].Parent != a || r.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.Job != 42 || s.Worker != 1 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (gridd (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 25 0 0 20 0 9 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1750 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v (150+25 ticks of 10 ms)", got, want)
	}
	for _, bad := range []string{"", "1 gridd S 1", "1 (gridd) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q): no error", bad)
		}
	}
	status := "Name:\tgridd\nVmPeak:\t 1234 kB\nVmHWM:\t   14336 kB\nThreads:\t8\n"
	if kb, err := parseStatusField(status, "VmHWM"); err != nil || kb != 14336 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseStatusField(status, "VmSwap"); err == nil {
		t.Error("missing field: no error")
	}
}

func TestGrantOrderProvesFIFO(t *testing.T) {
	ok := grantOrder{grantSeq: []uint64{3, 1, 2, 4}, waiterSeq: []uint64{2, 0, 1, 0}}
	if err := ok.check(); err != nil {
		t.Errorf("FIFO order rejected: %v", err)
	}
	jumped := grantOrder{grantSeq: []uint64{1, 2}, waiterSeq: []uint64{2, 1}}
	if err := jumped.check(); err == nil {
		t.Error("a queue jump passed the FIFO proof")
	}
}

func TestStripTimingAndFirstDiff(t *testing.T) {
	raw := "==== Figure ====\nrow 1\n# timing: n=10 wall=1ms events/s=5\n# totals: 3\n# generated in 4ms\n\n"
	want := "==== Figure ====\nrow 1\n# totals: 3\n\n"
	if got := stripTiming(raw); got != want {
		t.Errorf("stripTiming = %q, want %q", got, want)
	}
	if d := firstDiff("a\nb\nc\n", "a\nB\nc\n"); !strings.Contains(d, "line 2") {
		t.Errorf("firstDiff = %q, want line 2 named", d)
	}
	sum, err := tableColumn("==== F ====\n# sub\nclients jobs events\n10 1.0 5.0\n20 2.0 7.5\n# timing: x\n", "events")
	if err != nil || sum != 12.5 {
		t.Errorf("tableColumn = %v, %v, want 12.5", sum, err)
	}
}

func TestJudge(t *testing.T) {
	s := func(xs ...float64) series { return newSeries("ms", xs) }
	for _, tc := range []struct {
		name          string
		before, after series
		better        string
		bound         float64
		verdict       string
	}{
		{"within bound", s(10, 10.1, 9.9), s(10.5, 10.6, 10.4), "lower", 0.1, "ok"},
		{"beyond bound", s(10, 10.1, 9.9), s(11.5, 11.6, 11.4), "lower", 0.1, "regressed"},
		{"higher is better", s(100, 101, 99), s(80, 81, 79), "higher", 0.1, "regressed"},
		{"improvement", s(10, 10.1, 9.9), s(5, 5.1, 4.9), "lower", 0.1, "ok"},
		{"too noisy to tell", s(10, 14, 6, 12, 8), s(11, 15, 7, 13, 9), "lower", 0.1, "unresolved"},
		{"noisy but every run better", s(10, 14, 6, 12, 8), s(3, 5, 2, 4, 1), "lower", 0.1, "ok"},
	} {
		if got := judge(tc.before, tc.after, tc.better, tc.bound); got != tc.verdict {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.verdict)
		}
	}
}

// BENCHMARK.json is the contract with the driver; the code's tables
// are what the program prints. They must say the same thing.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", bf.RunSeconds, defaultSeconds)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command %v, want %v", bf.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths %v, want %v", bf.Paths, want)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q declared, %q in code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: %d declared, %d in code", kind, len(decl), len(defs))
		}
		for i, d := range decl {
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != defs[i].better {
				t.Errorf("%s %d: declared %+v, code %+v", kind, i, d, defs[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	setup := false
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(bf.PerLayer))
	}
}

func TestReportPrintsEveryDeclaredMetricAndFailsOnProblems(t *testing.T) {
	o := newOutcome()
	o.attempted = 10
	for _, d := range endToEnd {
		o.set(d.name, 1.5)
	}
	var out, errOut bytes.Buffer
	if code := report("w", o, false, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 10 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}

	// The traced run reports every per-layer metric; the ones the
	// workload does not cross read 0.
	o = newOutcome()
	o.set("wire.roundtrip_us", 170)
	out.Reset()
	if code := report("w", o, true, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines = strings.Split(strings.TrimSpace(out.String()), "\n")
	res = result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["wire.roundtrip_us"].Value != 170 || res.Metrics["ftsh.lex_us_per_script"].Value != 0 {
		t.Errorf("traced result has %d metrics", len(res.Metrics))
	}

	// A failed check or an undeclared metric makes the run incorrect.
	o = newOutcome()
	o.attempted = 10
	o.problem("ledger: 1 unit outstanding")
	out.Reset()
	if code := report("w", o, false, &out, &errOut); code == 0 {
		t.Error("a failed check exited 0")
	}
	o = newOutcome()
	o.set("no.such_metric", 1)
	if code := report("w", o, false, &out, &errOut); code == 0 {
		t.Error("an undeclared metric exited 0")
	}
}
