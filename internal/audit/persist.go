package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"caladrius/internal/atomicfile"
)

// Ledger persistence mirrors the tsdb snapshot format: a JSON header
// line followed by one JSON line per record, oldest first, so a
// restarted daemon resumes with its audit history (and the rolling
// accuracy state replayed from the resolved records).

const (
	snapshotFormat  = "caladrius-audit"
	snapshotVersion = 1
)

type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Records int    `json:"records"`
	// Calibrations carries the last-calibration marks per topology.
	Calibrations map[string]time.Time `json:"calibrations,omitempty"`
}

// WriteSnapshot streams the ledger to w: header, then records oldest
// first.
func (l *Ledger) WriteSnapshot(w io.Writer) error {
	l.mu.Lock()
	entries := make([]entry, 0, l.n)
	for i := 0; i < l.n; i++ {
		entries = append(entries, l.recs[(l.head+i)%capacity])
	}
	cals := make(map[string]time.Time, len(l.lastCalibration))
	for topo, at := range l.lastCalibration {
		cals[topo] = at
	}
	l.mu.Unlock()

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotHeader{Format: snapshotFormat, Version: snapshotVersion, Records: len(entries), Calibrations: cals}); err != nil {
		return err
	}
	var arrays recordArrays
	for i := range entries {
		// Each record is encoded before the next reuses the arrays.
		arrays = recordArrays{arrays.costs[:0], arrays.times[:0], arrays.observed[:0], arrays.errs[:0]}
		if err := enc.Encode(entries[i].unpack(&arrays)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot loads records from r into the ledger, replacing its
// contents; ids continue from the last record loaded. Records beyond
// capacity keep only the newest; resolved non-counterfactual records
// replay into the rolling accuracy state in order, so gauges and stats
// resume where the previous process left off. A snapshot that is
// malformed, holds another number of records than its header says, or
// whose ids are not consecutive, is an error that leaves the ledger as
// it was.
func (l *Ledger) ReadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr snapshotHeader
	if err := readLine(br, &hdr); err != nil {
		return fmt.Errorf("audit: snapshot header: %w", err)
	}
	if hdr.Format != snapshotFormat {
		return fmt.Errorf("audit: not an audit snapshot (format %q)", hdr.Format)
	}
	if hdr.Version != snapshotVersion {
		return fmt.Errorf("audit: unsupported snapshot version %d", hdr.Version)
	}
	if hdr.Records < 0 {
		return fmt.Errorf("audit: snapshot header says %d records", hdr.Records)
	}
	// The header's count sizes nothing past the ledger's own capacity:
	// the file is not trusted to say how much memory to ask for.
	recs := make([]Record, 0, min(hdr.Records, capacity))
	for {
		var rec Record
		err := readLine(br, &rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("audit: snapshot record %d: %w", len(recs)+1, err)
		}
		// The ring holds consecutive ids, which Get and the resolver
		// find records by; a file that does not is not a ledger's.
		if n := len(recs); rec.ID <= 0 || n > 0 && rec.ID != recs[n-1].ID+1 {
			return fmt.Errorf("audit: snapshot record %d: id %d does not follow the ids before it", n+1, rec.ID)
		}
		recs = append(recs, rec)
	}
	if len(recs) != hdr.Records {
		return fmt.Errorf("audit: snapshot header says %d records, read %d", hdr.Records, len(recs))
	}
	if len(recs) > capacity {
		recs = recs[len(recs)-capacity:]
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.recs)
	l.head, l.n = 0, 0
	l.rolling = map[modelKey]*rollingStats{}
	for i := range recs {
		rec := &recs[i]
		e := &l.recs[i]
		e.pack(rec, l.interned)
		l.n++
		l.seq = rec.ID
		if rec.Resolved {
			l.rollingLocked(modelKey{e.topology, e.model}).add(rec.Errors)
		}
	}
	for topo, at := range hdr.Calibrations {
		l.lastCalibration[topo] = at
	}
	return nil
}

// readLine decodes the next line of a snapshot into v. It returns
// io.EOF at the end of the input; a last line without its newline is a
// file cut short, not a record.
func readLine(br *bufio.Reader, v any) error {
	line, err := br.ReadBytes('\n')
	if err == io.EOF && len(line) > 0 {
		return io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// SaveFile atomically writes the ledger snapshot to path.
func (l *Ledger) SaveFile(path string) error {
	return atomicfile.Write(path, l.WriteSnapshot)
}

// LoadFile reads a ledger snapshot from path.
func (l *Ledger) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return l.ReadSnapshot(f)
}
