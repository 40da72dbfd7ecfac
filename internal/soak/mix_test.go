package soak

import "testing"

func TestMixPickCoversAllOpsProportionally(t *testing.T) {
	m := Mix{{OpPredict, 3}, {OpUsage, 1}}
	counts := map[string]int{}
	for v := 0; v < m.Total(); v++ {
		counts[m.pick(v)]++
	}
	if counts[OpPredict] != 3 || counts[OpUsage] != 1 {
		t.Fatalf("pick distribution over one weight cycle = %v, want predict:3 usage:1", counts)
	}
}
