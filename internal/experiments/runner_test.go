package experiments

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/metrics"
)

// tinySweep is small enough that a full figure regenerates in well
// under a second, yet still exercises repeats, noise, and the measured
// warmup/steady-state split.
func tinySweep(parallelism int) SweepOptions {
	return SweepOptions{
		WarmupMinutes: 1, MeasureMinutes: 2,
		Tick: 200 * time.Millisecond, Repeats: 2, NoiseStd: 0.015,
		Parallelism: parallelism,
	}
}

func TestRunPointsOrderStable(t *testing.T) {
	got, err := RunPoints(SweepOptions{Parallelism: 8}, 100, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunPointsEmpty(t *testing.T) {
	got, err := RunPoints(SweepOptions{Parallelism: 8}, 0, func(i int) (int, error) {
		t.Error("fn called for empty sweep")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("RunPoints(0) = %v, %v; want nil, nil", got, err)
	}
}

// TestRunPointsFirstErrorWins checks the error semantics match the
// sequential loop: with every index ≥ failFrom failing, the returned
// error must always be failFrom's — the lowest failing index is
// dispatched before any later one and before dispatch can stop (all
// earlier tasks succeed), so even when several concurrent tasks fail,
// the winner is deterministic. It also checks that workers drain
// cleanly: no fn invocation may still be in flight once RunPoints has
// returned, and the pool never exceeds its bound.
func TestRunPointsFirstErrorWins(t *testing.T) {
	const (
		n        = 64
		failFrom = 20
		workers  = 8
	)
	for round := 0; round < 25; round++ {
		var inFlight, peak atomic.Int64
		_, err := RunPoints(SweepOptions{Parallelism: workers}, n, func(i int) (int, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			if i >= failFrom {
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("expected an error")
		}
		if want := fmt.Sprintf("task %d failed", failFrom); err.Error() != want {
			t.Fatalf("round %d: error = %q, want %q", round, err, want)
		}
		if got := inFlight.Load(); got != 0 {
			t.Fatalf("round %d: %d tasks still in flight after return", round, got)
		}
		if p := peak.Load(); p > workers {
			t.Fatalf("round %d: %d concurrent tasks, pool bound is %d", round, p, workers)
		}
	}
}

// TestRunPointsFailingSimulation hammers the runner with real
// simulator tasks where one mid-sweep point cannot even build its
// simulation. Run under -race (scripts/verify.sh does) this also
// exercises the pool's synchronisation against the simulator and tsdb
// write paths.
func TestRunPointsFailingSimulation(t *testing.T) {
	sweep := tinySweep(8)
	const n, badIdx = 24, 11
	var started atomic.Int64
	_, err := RunPoints(sweep, n, func(i int) (metrics.SteadyState, error) {
		started.Add(1)
		p := 1
		if i == badIdx {
			p = -1 // rejected by the topology builder
		}
		d, err := metrics.DeployWordCount(heron.WordCountOptions{
			SplitterP: p, CounterP: 3, RatePerMinute: 8e6, NoiseSeed: RepeatSeed(i), Tick: sweep.Tick,
		}, sweep.WarmupMinutes, sweep.MeasureMinutes)
		if err != nil {
			return metrics.SteadyState{}, err
		}
		return d.SteadyState("splitter")
	})
	if err == nil {
		t.Fatal("expected the mid-sweep simulation failure to surface")
	}
	if !strings.Contains(err.Error(), "parallelism -1") {
		t.Fatalf("error = %q, want the builder's parallelism complaint", err)
	}
	// Dispatch stops after the failure: the failing task and everything
	// before it ran, plus at most workers-1 in-flight successors.
	if s := started.Load(); s < badIdx+1 || s > n {
		t.Fatalf("started %d tasks, want between %d and %d", s, badIdx+1, n)
	}
}

// TestSweepParallelismDeterminism is the tentpole guarantee: figures
// regenerated at Parallelism 8 must be byte-identical (CSV) to the
// sequential Parallelism 1 run.
func TestSweepParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a row twice")
	}
	seq, par := run(t, "fig05", tinySweep(1)), run(t, "fig05", tinySweep(8))
	for name, tbl := range seq {
		if tbl.CSV() != par[name].CSV() {
			t.Fatalf("%s: parallel sweep diverged from sequential:\n-- parallelism 1:\n%s\n-- parallelism 8:\n%s", name, tbl.CSV(), par[name].CSV())
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", name)
		}
	}
}

// TestRunRepeatsSeedsAreStable pins the per-repeat seed derivation:
// seeds depend on the repeat index alone, never on scheduling.
func TestRunRepeatsSeedsAreStable(t *testing.T) {
	for r, want := range []int64{1000, 8919, 16838, 24757} {
		if got := RepeatSeed(r); got != want {
			t.Fatalf("RepeatSeed(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestRelErrZeroWant(t *testing.T) {
	if got := relErr(3, 0); got != 3 {
		t.Fatalf("relErr(3, 0) = %v, want absolute error 3", got)
	}
	if got := relErr(0, 0); got != 0 {
		t.Fatalf("relErr(0, 0) = %v, want 0", got)
	}
	if got := relErr(11, 10); got != 0.1 {
		t.Fatalf("relErr(11, 10) = %v, want 0.1", got)
	}
}

var errSentinel = errors.New("sentinel")

// TestRunPointsSequentialErrorPath covers the workers<=1 degenerate
// loop's early return.
func TestRunPointsSequentialErrorPath(t *testing.T) {
	calls := 0
	_, err := RunPoints(SweepOptions{Parallelism: 1}, 10, func(i int) (int, error) {
		calls++
		if i == 3 {
			return 0, errSentinel
		}
		return i, nil
	})
	if !errors.Is(err, errSentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 4 {
		t.Fatalf("sequential path made %d calls, want 4 (stop at first failure)", calls)
	}
}

// TestRunPointsHonoursTheSweep reads the package's source: every
// RunPoints call must pass the sweep it was given, not a fresh
// SweepOptions literal, which would fan out to GOMAXPROCS workers
// whatever figures -parallel asked for.
func TestRunPointsHonoursTheSweep(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := call.Fun
			if ix, ok := fn.(*ast.IndexExpr); ok {
				fn = ix.X
			}
			if id, ok := fn.(*ast.Ident); !ok || id.Name != "RunPoints" {
				return true
			}
			if _, ok := call.Args[0].(*ast.CompositeLit); ok {
				t.Errorf("%s: RunPoints gets a SweepOptions literal; pass the experiment's sweep", fset.Position(call.Pos()))
			}
			return true
		})
	}
}
