package profiler

import (
	"fmt"
	"testing"
)

// warmFoldTable returns a decoded 64-stack profile and a table that
// has folded it once, so every function and stack is already inserted.
func warmFoldTable(tb testing.TB) (*Table, *Profile) {
	stacks := make(map[string]int64, 64)
	for i := 0; i < 64; i++ {
		stacks[fmt.Sprintf("main;runtime.mcall;worker%d;inner%d", i%8, i)] = int64(100 + i)
	}
	p, err := Parse(cpuProfileBytes(tb, true, stacks))
	if err != nil {
		tb.Fatal(err)
	}
	tbl := NewTable()
	tbl.Fold(p)
	return tbl, p
}

// BenchmarkProfilerFold measures the steady-state fold: a decoded
// profile whose functions and stacks are already in the table. This
// is the per-capture hot path of the always-on profiler; the budget
// is 0 allocs/op, which TestProfilerFoldWarmTableAllocatesNothing
// holds it to. It explains the profiler's own CPU per capture, which no
// layer of the benchmark times.
func BenchmarkProfilerFold(b *testing.B) {
	tbl, p := warmFoldTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Fold(p)
	}
}

// BenchmarkPprofParse measures the decode cost per capture, the other
// half of the profiler's own CPU per capture, which no layer of the
// benchmark times.
func BenchmarkPprofParse(b *testing.B) {
	stacks := make(map[string]int64, 64)
	for i := 0; i < 64; i++ {
		stacks[fmt.Sprintf("main;runtime.mcall;worker%d;inner%d", i%8, i)] = int64(100 + i)
	}
	data := cpuProfileBytes(b, true, stacks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestProfilerFoldWarmTableAllocatesNothing(t *testing.T) {
	tbl, p := warmFoldTable(t)
	if allocs := testing.AllocsPerRun(100, func() { tbl.Fold(p) }); allocs != 0 {
		t.Fatalf("Fold on a warm table = %.0f allocs/op, want 0", allocs)
	}
}
