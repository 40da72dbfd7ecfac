package heron

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"caladrius/internal/tsdb"
	"caladrius/internal/workload"
)

// warmUpStore is the serving daemon's default demo substrate as the
// benchmark starts it (-rate 45e6 -warm-minutes 1440): the word-count
// topology at splitter 3, counter 4, simulated for a day.
func warmUpStore(t testing.TB) *tsdb.DB {
	t.Helper()
	sim, err := NewWordCount(WordCountOptions{
		SplitterP: 3,
		CounterP:  4,
		Schedule:  workload.ConstantRate(45e6 / 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1440 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return sim.Substrate().DB
}

// TestWarmUpSnapshotBytes pins the bytes of the warm-up store's
// snapshot, so a change to how the simulator writes or the store holds
// its samples cannot move a stored value or instant unnoticed.
func TestWarmUpSnapshotBytes(t *testing.T) {
	const (
		points = 223_200
		size   = 3_137_601
		digest = "985b0d07a04db6b78a0dce5631db82885ed238819bbefe233782837358eb765c"
	)
	db := warmUpStore(t)
	if got := db.TotalPoints(); got != points {
		t.Errorf("warm-up store holds %d points, want %d", got, points)
	}
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != size || got != digest {
		t.Errorf("warm-up snapshot is %d bytes with sha256 %s, want %d bytes with %s", buf.Len(), got, size, digest)
	}
}
