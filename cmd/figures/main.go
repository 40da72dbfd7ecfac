// Command figures regenerates the paper's evaluation figures
// (Figures 4–12 plus the traffic-forecast and Dhalion comparisons and
// four ablations), printing each as an ASCII table and optionally
// writing CSVs. It runs every row of experiments.Experiments that
// produces a selected table; -only names tables, and only those are
// printed and written.
//
// Usage:
//
//	figures [-only fig04,fig10] [-out results/] [-accurate] [-parallel N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"caladrius/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated experiment names (fig04..fig12, traffic, dhalion, ablation-*)")
	out := fs.String("out", "", "directory to write CSV files into")
	accurate := fs.Bool("accurate", false, "longer runs and finer ticks for tighter averages")
	parallel := fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	fs.Parse(args)

	sweep := experiments.DefaultSweep
	if *accurate {
		sweep.WarmupMinutes, sweep.MeasureMinutes, sweep.Tick = 8, 10, 50*time.Millisecond
	}
	sweep.Parallelism = *parallel

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if _, ok := experiments.Lookup(name); !ok {
				var have []string
				for _, e := range experiments.Experiments {
					have = append(have, e.Tables...)
				}
				return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(have, ", "))
			}
			selected[name] = true
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }
	for _, e := range experiments.Experiments {
		if !slices.ContainsFunc(e.Tables, want) {
			continue
		}
		started := time.Now()
		tables, err := e.Run(sweep)
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(e.Tables, ", "), err)
		}
		var shown []string
		for _, tbl := range tables {
			if !want(tbl.Name) {
				continue
			}
			shown = append(shown, tbl.Name)
			fmt.Fprintln(stdout, tbl.ASCII())
			if *out != "" {
				path := filepath.Join(*out, tbl.Name+".csv")
				if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stdout, "   (%s in %.1fs)\n\n", strings.Join(shown, ", "), time.Since(started).Seconds())
	}
	return nil
}
