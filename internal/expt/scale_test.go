package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFigScaleDeterministic is the scale figure's smoke acceptance: the
// deterministic columns must be identical run-to-run.
func TestFigScaleDeterministic(t *testing.T) {
	opt := Options{Seed: 1, Scale: 0.001} // 10/100/1000-client cells
	base := FigScale(opt)
	if got := FigScale(opt); !reflect.DeepEqual(base.Table, got.Table) {
		t.Fatal("same seed produced different scale tables")
	}
	// Sanity: the biggest cell did real work.
	last := base.Cells[len(base.Cells)-1]
	if last.Clients != 1000 || last.Events == 0 || last.Attempts == 0 {
		t.Fatalf("smoke cell degenerate: %+v", last)
	}
}

// TestScaleWheelHealthExported asserts the wheel-health gauges carry
// real data through the flight recorder on a scale cell: cascades and
// slot occupancy must be nonzero (the sweep's 10s think timers live a
// level up and must cascade down), and the beyond-horizon watchdog
// must appear in the overflow gauge's samples.
func TestScaleWheelHealthExported(t *testing.T) {
	reg := obs.New()
	opt := Options{Seed: 1, Scale: 0.01, Obs: reg}
	r := ScaleCell(opt, 1, 1000)
	if r.Events == 0 {
		t.Fatal("cell ran no events")
	}
	if v := reg.CurrentTotal(MWheelCascades); v <= 0 {
		t.Errorf("%s = %v, want > 0", MWheelCascades, v)
	}
	if v := reg.CurrentTotal(MWheelMaxSlot); v <= 0 {
		t.Errorf("%s = %v, want > 0", MWheelMaxSlot, v)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	maxPoint := map[string]float64{}
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Family string      `json:"family"`
			Points [][]float64 `json:"points"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSONL line: %v\n%s", err, line)
		}
		for _, p := range rec.Points {
			if len(p) == 2 && p[1] > maxPoint[rec.Family] {
				maxPoint[rec.Family] = p[1]
			}
		}
	}
	for _, fam := range []string{MWheelCascades, MWheelMaxSlot, MWheelOverflow} {
		if maxPoint[fam] <= 0 {
			t.Errorf("family %s never sampled a nonzero value", fam)
		}
	}
}

// TestScaleWheelCountsPinned pins the wheel's exact counters on the
// seed-1, -scale 0.01 sweep (100 / 1 000 / 10 000 clients), as
// `gridbench -fig scale -scale 0.01 -seed 1 -metrics m.prom
// -metrics-format prom` prints them. The timer queue may change how it
// moves nodes, never where it files them: the cascade count and the
// fullest slot are functions of the filing rule and the seed alone, and
// the benchmark's sim-scale workload reports them for comparison.
func TestScaleWheelCountsPinned(t *testing.T) {
	reg := obs.New()
	FigScale(Options{Seed: 1, Scale: 0.01, Obs: reg})
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && !strings.HasPrefix(line, "#") {
			got[f[0]] = f[1]
		}
	}
	for _, c := range []struct {
		n                 int
		cascades, slotMax int
	}{
		{100, 110, 7},
		{1_000, 1_119, 71},
		{10_000, 10_922, 474},
	} {
		for fam, want := range map[string]int{MWheelCascades: c.cascades, MWheelMaxSlot: c.slotMax, MWheelOverflow: 0} {
			key := fmt.Sprintf("%s{cell=%q}", fam, fmt.Sprintf("scale/ethernet/n%d", c.n))
			if g, ok := got[key]; !ok || g != fmt.Sprint(want) {
				t.Errorf("%s = %q, want %d", key, g, want)
			}
		}
	}
}
