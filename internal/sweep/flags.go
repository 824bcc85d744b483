package sweep

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cmpsched/internal/config"
	"cmpsched/internal/sched"
	"cmpsched/internal/workload"
)

// BindSpecFlags declares the grid flags the sweep commands share on fs —
// -workloads, -schedulers, -tables, -topology, -cores, -scale, -quick and
// -seq — and returns the function that, once fs is parsed, assembles them
// into a Spec.  The Spec has no Factory; the caller sets its own.
func BindSpecFlags(fs *flag.FlagSet) func() (Spec, error) {
	var (
		workloads  = fs.String("workloads", "mergesort,hashjoin,lu", "comma-separated workloads: "+strings.Join(workload.Names(), ", "))
		schedulers = fs.String("schedulers", "pdf,ws", "comma-separated schedulers: "+strings.Join(sched.Names(), ", "))
		tables     = fs.String("tables", TableDefault, "configuration tables: default (Table 2), 45nm (Table 3)")
		topology   = fs.String("topology", "shared", "comma-separated cache topologies: shared, private, clustered:<k>")
		cores      = fs.String("cores", "", "comma-separated core counts (empty = all the tables define)")
		scale      = fs.Int64("scale", config.DefaultScale, "scale factor dividing the paper's cache capacities and the harness's workload inputs")
		quick      = fs.Bool("quick", false, "use reduced inputs (seconds instead of minutes)")
		seq        = fs.Bool("seq", false, "also run the sequential baseline per point")
	)
	return func() (Spec, error) {
		s := Spec{
			Workloads:  SplitList(*workloads),
			Schedulers: SplitList(*schedulers),
			Tables:     SplitList(*tables),
			Topologies: SplitList(*topology),
			Scale:      *scale,
			Quick:      *quick,
			Sequential: *seq,
		}
		for _, f := range SplitList(*cores) {
			c, err := strconv.Atoi(f)
			if err != nil {
				return Spec{}, fmt.Errorf("bad -cores: %w", err)
			}
			s.Cores = append(s.Cores, c)
		}
		return s, nil
	}
}

// SplitList splits a comma-separated flag value, trimming spaces and
// dropping empty fields.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// WriteAxes lists every axis value a Spec or a wire request accepts: the
// workload and scheduler names straight from the live registries (sorted,
// so late registrations and parameterised scheduler spellings show up
// without command changes), the topology encodings and the tables.
func WriteAxes(w io.Writer) {
	fmt.Fprintf(w, "workloads:  %s\n", strings.Join(workload.Names(), ", "))
	fmt.Fprintf(w, "schedulers: %s (plus the %q sequential baseline)\n", strings.Join(sched.Names(), ", "), Sequential)
	fmt.Fprintf(w, "topologies: shared, private, clustered:<cores-per-slice>\n")
	fmt.Fprintf(w, "tables:     %s (Table 2), %s (Table 3)\n", TableDefault, Table45nm)
}
