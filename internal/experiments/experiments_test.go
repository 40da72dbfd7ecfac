package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"caladrius/internal/heron"
)

// fastSweep keeps experiment tests quick while preserving the shape
// claims (coarser tick, shorter windows).
var fastSweep = SweepOptions{WarmupMinutes: 3, MeasureMinutes: 4, Tick: 200 * time.Millisecond, Repeats: 5, NoiseStd: 0.01}

// rowRun keys a row's run by the row's first table and the sweep.
type rowRun struct {
	row   string
	sweep SweepOptions
}

// runs holds each row's tables by name, so tests reading different
// tables of one row share its simulations, as cmd/figures does. The
// tests do not run in parallel.
var runs = map[rowRun]map[string]Table{}

// run runs, through Experiments, the row that produces name under
// sweep and returns the row's tables by name.
func run(t *testing.T, name string, sweep SweepOptions) map[string]Table {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no row produces %q", name)
	}
	key := rowRun{e.Tables[0], sweep}
	if out, ok := runs[key]; ok {
		return out
	}
	tables, err := e.Run(sweep)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Table{}
	for _, tbl := range tables {
		out[tbl.Name] = tbl
	}
	runs[key] = out
	return out
}

func TestFig04Shape(t *testing.T) {
	tbl := run(t, "fig04", fastSweep)["fig04"]
	if len(tbl.Rows) != 20 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	sp := float64(heron.SplitterServiceRate) * 60 / 1e6
	for _, row := range tbl.Rows {
		src, in, inLo, inHi, out := row[0], row[1], row[2], row[3], row[4]
		eps := 1e-9 * (1 + math.Abs(in))
		if !(inLo <= in+eps && in <= inHi+eps) {
			t.Errorf("src %.0fM: CI [%.2f, %.2f] does not bracket mean %.2f", src, inLo, inHi, in)
		}
		if src < sp*0.95 {
			// Linear region: input tracks source; output ≈ α×input.
			if math.Abs(in-src)/src > 0.03 {
				t.Errorf("src %.0fM: input %.2fM not linear", src, in)
			}
			if math.Abs(out/in-heron.SplitterAlpha) > 0.05 {
				t.Errorf("src %.0fM: ratio %.3f", src, out/in)
			}
		}
		if src > sp*1.1 {
			// Plateau at SP / ST.
			if math.Abs(in-sp)/sp > 0.05 {
				t.Errorf("src %.0fM: saturated input %.2fM, want ≈%.2fM", src, in, sp)
			}
		}
	}
}

func TestFig05RatioConstant(t *testing.T) {
	tbl := run(t, "fig05", fastSweep)["fig05"]
	for _, row := range tbl.Rows {
		if math.Abs(row[1]-heron.SplitterAlpha) > 0.05 {
			t.Errorf("ratio at %.0fM = %.4f", row[0], row[1])
		}
	}
}

func TestFig06Bimodal(t *testing.T) {
	tbl := run(t, "fig06", fastSweep)["fig06"]
	sp := heron.SplitterServiceRate * 60 / 1e6
	for _, row := range tbl.Rows {
		src, bp := row[0], row[1]
		if src < sp*0.95 && bp > 1000 {
			t.Errorf("src %.0fM below SP has bp %.0f ms", src, bp)
		}
		if src > sp*1.15 && bp < 45_000 {
			t.Errorf("src %.0fM above SP has bp %.0f ms (want bimodal ≳50000)", src, bp)
		}
	}
}

func TestFig07And08ComponentScaling(t *testing.T) {
	tables := run(t, "fig07", fastSweep)
	tbl7, tbl8 := tables["fig07"], tables["fig08"]
	if len(tbl7.Rows) == 0 || len(tbl7.Findings) < 3 {
		t.Fatalf("fig07 table incomplete: %+v", tbl7)
	}
	// The headline claim: ST prediction errors in the single digits.
	foundErrors := 0
	for _, f := range tbl8.Findings {
		if strings.Contains(f, "ST prediction error") {
			foundErrors++
			var p int
			var e, paper float64
			if _, err := fmt.Sscanf(f, "p=%d ST prediction error %f%%", &p, &e); err != nil {
				t.Fatalf("unparseable finding %q: %v", f, err)
			}
			_ = paper
			if e > 5.0 {
				t.Errorf("finding %q exceeds 5%% error budget", f)
			}
		}
	}
	if foundErrors != 2 {
		t.Errorf("expected 2 ST error findings, got %d: %v", foundErrors, tbl8.Findings)
	}
}

func TestFig09CounterValidation(t *testing.T) {
	tbl := run(t, "fig09", fastSweep)["fig09"]
	// p=4 predicted vs measured agree within 5% everywhere measured.
	for _, row := range tbl.Rows {
		pred, meas := row[2], row[3]
		if meas > 0 && math.Abs(pred-meas)/meas > 0.05 {
			t.Errorf("counter source %.0fM: p=4 pred %.1fM vs meas %.1fM", row[0], pred, meas)
		}
	}
}

// TestFig09CalibrationAttributesBottleneck calibrates as Fig. 9 does.
// In its saturated run the counter binds, and the splitter's queues
// trip only behind it, so the splitter's SP must stay unknown rather
// than take the inherited backpressure as its own saturation.
func TestFig09CalibrationAttributesBottleneck(t *testing.T) {
	models, err := calibrateSplitter(8, 3, 20e6, 35e6, DefaultSweep)
	if err != nil {
		t.Fatal(err)
	}
	if sp := models["splitter"].Instance.SP; !math.IsInf(sp, 1) {
		t.Errorf("splitter SP = %.3g M/min, want +Inf: the counter is the bottleneck", sp/1e6)
	}
	if !models["counter"].Instance.SaturatedObservable() {
		t.Error("counter SP not calibrated despite being the bottleneck")
	}
}

func TestFig10CriticalPathError(t *testing.T) {
	tbl := run(t, "fig10", fastSweep)["fig10"]
	for _, row := range tbl.Rows {
		pred, meas := row[1], row[2]
		if meas > 0 && math.Abs(pred-meas)/meas > 0.06 {
			t.Errorf("source %.0fM: predicted %.1fM vs measured %.1fM", row[0], pred, meas)
		}
	}
}

func TestFig11And12CPU(t *testing.T) {
	tables := run(t, "fig11", fastSweep)
	tbl11, tbl12 := tables["fig11"], tables["fig12"]
	if len(tbl11.Rows) == 0 {
		t.Fatal("fig11 empty")
	}
	for _, row := range tbl12.Rows {
		for _, pair := range [][2]float64{{row[1], row[2]}, {row[3], row[4]}} {
			meas, pred := pair[0], pair[1]
			if meas > 0 && math.Abs(pred-meas)/meas > 0.06 {
				t.Errorf("cpu at %.0fM: measured %.3f vs predicted %.3f", row[0], meas, pred)
			}
		}
	}
}

// TestNoiselessPredictionsAreExact pins EXPERIMENTS.md's "with a
// noiseless simulator the models are exact": with NoiseStd 0, every
// throughput and CPU prediction of Figs. 8, 10 and 12, calibrated at
// p=3, matches its deployed measurement to a relative error of at most
// 1e-9. What remains is float rounding (about 1e-14).
func TestNoiselessPredictionsAreExact(t *testing.T) {
	const bound = 1e-9
	sweep := fastSweep
	sweep.NoiseStd = 0
	tables := run(t, "fig08", sweep)
	for _, c := range []struct {
		table string
		pairs [][2]int // {measured, predicted} column indices
	}{
		{"fig08", [][2]int{{1, 2}, {3, 4}}},
		{"fig10", [][2]int{{2, 1}}},
		{"fig12", [][2]int{{1, 2}, {3, 4}}},
	} {
		tbl := tables[c.table]
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s has no rows", c.table)
		}
		for _, row := range tbl.Rows {
			for _, p := range c.pairs {
				meas, pred := row[p[0]], row[p[1]]
				if e := relErr(pred, meas); e > bound {
					t.Errorf("%s at %.0fM, %s: predicted %.17g, measured %.17g, relative error %.3g > %g",
						c.table, row[0], tbl.Columns[p[0]], pred, meas, e, bound)
				}
			}
		}
	}
}

// TestRunRefusesEmptySweep: a sweep that measures nothing is an error
// from every row, not a table of NaN.
func TestRunRefusesEmptySweep(t *testing.T) {
	for name, mutate := range map[string]func(*SweepOptions){
		"repeats":          func(o *SweepOptions) { o.Repeats = 0 },
		"measured minutes": func(o *SweepOptions) { o.MeasureMinutes = 0 },
		"tick":             func(o *SweepOptions) { o.Tick = 0 },
		"parallelism":      func(o *SweepOptions) { o.Parallelism = -3 },
	} {
		sweep := fastSweep
		mutate(&sweep)
		for _, e := range Experiments {
			if tables, err := e.Run(sweep); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%v with zero %s: tables %v, err %v", e.Tables, name, tables, err)
			}
		}
	}
}

func TestTrafficForecastExperiment(t *testing.T) {
	tbl := run(t, "traffic", fastSweep)["traffic"]
	if len(tbl.Rows) != 24 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestDhalionVsCaladriusExperiment(t *testing.T) {
	tbl := run(t, "dhalion", fastSweep)["dhalion"]
	if len(tbl.Rows) < 4 {
		t.Errorf("dhalion rounds = %d, expected several", len(tbl.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Name:     "t",
		Title:    "demo",
		Columns:  []string{"a", "b"},
		Rows:     [][]float64{{1, 2.5}, {3, 4}},
		Findings: []string{"finding one"},
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2.5\n") {
		t.Errorf("csv = %q", csv)
	}
	ascii := tbl.ASCII()
	if !strings.Contains(ascii, "demo") || !strings.Contains(ascii, "finding one") {
		t.Errorf("ascii = %q", ascii)
	}
}
