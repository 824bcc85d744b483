package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// csvHeader lists the columns WriteCSV emits, one row per result.
var csvHeader = []string{
	"workload", "scheduler", "config", "cores",
	"cycles", "instructions", "refs",
	"l2_misses", "l2_misses_per_kiloinstr", "mem_utilization",
	"cached", "elapsed_ns",
}

// CSVHeader returns a copy of the CSV column names.
func CSVHeader() []string {
	out := make([]string, len(csvHeader))
	copy(out, csvHeader)
	return out
}

func csvRow(r Result) []string {
	sim := r.Sim
	return []string{
		r.Key.Workload,
		r.Key.Scheduler,
		sim.Config.Name,
		strconv.Itoa(sim.Config.Cores),
		strconv.FormatInt(sim.Cycles, 10),
		strconv.FormatInt(sim.Instructions, 10),
		strconv.FormatInt(sim.Refs, 10),
		strconv.FormatInt(sim.L2.Misses, 10),
		strconv.FormatFloat(sim.L2MissesPerKiloInstr(), 'f', 6, 64),
		strconv.FormatFloat(sim.MemUtilization, 'f', 6, 64),
		strconv.FormatBool(r.Cached),
		strconv.FormatInt(int64(r.Elapsed), 10),
	}
}

// CSVWriter streams results to CSV, writing the header lazily so it also
// works as a RunStreamContext callback sink.
type CSVWriter struct {
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Write appends one result row (and the header before the first row).
// Empty results — e.g. the unfilled entries of a failed run's partial
// result slice — are skipped rather than dereferenced.
func (c *CSVWriter) Write(r Result) error {
	if !c.wroteHeader {
		if err := c.w.Write(csvHeader); err != nil {
			return err
		}
		c.wroteHeader = true
	}
	if r.Sim == nil {
		return nil
	}
	return c.w.Write(csvRow(r))
}

// Flush flushes the underlying csv writer and reports any write error.
func (c *CSVWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}

// WriteCSV writes all results as CSV with a header row.
func WriteCSV(w io.Writer, results []Result) error {
	cw := NewCSVWriter(w)
	for _, r := range results {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	if !cw.wroteHeader {
		if err := cw.w.Write(csvHeader); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// WriteJSON writes the results as an indented JSON array.  The encoding is
// lossless for everything a Result carries, so ReadJSON round-trips it.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// ReadJSON decodes a WriteJSON stream.
func ReadJSON(r io.Reader) ([]Result, error) {
	var out []Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("sweep: decode results: %w", err)
	}
	return out, nil
}
