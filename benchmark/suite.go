package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"hbb"
	"hbb/internal/metrics"
)

// suiteIDs is one paper_suite iteration, in run order. The experiments pin
// their own seed, so -seed does not reach this workload.
var suiteIDs = []string{"fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "tab6", "tab7"}

// tracedBackends are run one at a time in the traced pass, to split fig3,
// fig4 and fig5 into the file system under them.
var tracedBackends = []hbb.Backend{hbb.BackendHDFS, hbb.BackendLustre, hbb.BackendBBAsync}

// defaultBackends is hbb's own compared set, restored after the traced pass
// has narrowed it.
var defaultBackends = []hbb.Backend{hbb.BackendHDFS, hbb.BackendLustre, hbb.BackendBBAsync, hbb.BackendBBLocality, hbb.BackendBBSync}

var bbSchemes = []string{"bb-async", "bb-locality", "bb-sync"}

type suite struct {
	sz          *sizes
	exps        []hbb.Experiment
	wallS       []float64         // per timed iteration
	first, last map[string]string // rendered tables of the first and the latest iteration
	lastTabs    map[string]*metrics.Table
}

func setupSuite(sz *sizes, _ int64) (instance, error) {
	s := &suite{sz: sz}
	for _, id := range suiteIDs {
		e, ok := hbb.ExperimentByID(id)
		if !ok {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		s.exps = append(s.exps, e)
	}
	for i := 0; i < sz.suiteWarm; i++ {
		if _, _, err := s.unit(nil, -1); err != nil {
			return nil, err
		}
	}
	s.wallS, s.first = nil, nil
	return s, nil
}

func (s *suite) unit(tr *tracer, parent int32) (int64, time.Duration, error) {
	tabs := make(map[string]*metrics.Table, len(s.exps))
	start := time.Now()
	for _, e := range s.exps {
		id := tr.begin(e.ID, parent)
		tabs[e.ID] = e.Run(hbb.ScaleSmall)
		tr.end(id)
	}
	wall := time.Since(start)
	s.wallS = append(s.wallS, wall.Seconds())
	s.lastTabs = tabs
	s.last = make(map[string]string, len(tabs))
	for id, t := range tabs {
		s.last[id] = t.String()
	}
	if s.first == nil {
		s.first = s.last
	}
	return int64(len(s.exps)), wall, nil
}

func (s *suite) report(m map[string]float64, ids map[string]string) {
	m["suite_wall_s"] = median(s.wallS)
	h := fnv.New64a()
	for _, id := range suiteIDs {
		h.Write([]byte(s.last[id]))
	}
	ids["model.tables_fnv64"] = fmt.Sprintf("%016x", h.Sum64())

	// The model.* figures are read at the larger data size, for bb-async,
	// the paper's default scheme. A cell that does not parse reads as 0
	// here and fails the ordering check in finish.
	w := func(b string) float64 { v, _ := lastSizeCell(s.lastTabs["fig3"], b, "MB/s"); return v }
	r := func(b string) float64 { v, _ := lastSizeCell(s.lastTabs["fig4"], b, "MB/s"); return v }
	so := func(b string) float64 { v, _ := lastSizeCell(s.lastTabs["fig5"], b, "time(s)"); return v }
	mix := func(b string) float64 { v, _ := lastSizeCell(s.lastTabs["fig8"], b, "makespan(s)"); return v }
	m["model.write_mbps.bb-async"] = w("bb-async")
	m["model.write_gain_vs_hdfs"] = w("bb-async") / w("hdfs")
	m["model.write_gain_vs_lustre"] = w("bb-async") / w("lustre")
	m["model.read_gain_vs_lustre"] = r("bb-async") / r("lustre")
	m["model.sort_cut_vs_hdfs"] = 1 - so("bb-async")/so("hdfs")
	m["model.sort_cut_vs_lustre"] = 1 - so("bb-async")/so("lustre")
	m["model.mix_cut_vs_hdfs"] = 1 - mix("bb-async")/mix("hdfs")
}

// lastCell reads column col of backend's last row in t: the tables list
// data sizes in rising order, so that is the larger size.
func lastCell(t *metrics.Table, backend, col string) (string, error) {
	ci, bi := -1, -1
	for i, c := range t.Columns {
		switch c {
		case col:
			ci = i
		case "backend", "scheme":
			bi = i
		}
	}
	if ci < 0 || bi < 0 {
		return "", fmt.Errorf("%s: no column %q beside a backend column", t.Title, col)
	}
	for i := len(t.Rows) - 1; i >= 0; i-- {
		if t.Rows[i][bi] == backend {
			return t.Rows[i][ci], nil
		}
	}
	return "", fmt.Errorf("%s: no row for %q", t.Title, backend)
}

func lastSizeCell(t *metrics.Table, backend, col string) (float64, error) {
	cell, err := lastCell(t, backend, col)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %s %s: %w", t.Title, backend, col, err)
	}
	return v, nil
}

func (s *suite) finish() (int64, int64, []string, error) {
	attempted := int64(len(s.wallS) * len(s.exps))
	var checks []string
	for _, id := range suiteIDs {
		if s.first[id] != s.last[id] {
			return attempted, 0, checks, fmt.Errorf("%s: table differs between the first and the last iteration:\n%s\n%s", id, s.first[id], s.last[id])
		}
	}
	checks = append(checks, fmt.Sprintf("tables byte-identical between iteration 1 and %d", len(s.wallS)))

	// above reports whether every name in hi reads more than every name in lo.
	above := func(tab, col string, hi, lo []string) error {
		for _, h := range hi {
			hv, err := lastSizeCell(s.lastTabs[tab], h, col)
			if err != nil {
				return err
			}
			for _, l := range lo {
				lv, err := lastSizeCell(s.lastTabs[tab], l, col)
				if err != nil {
					return err
				}
				if !(hv > lv) {
					return fmt.Errorf("%s %s: %s = %v is not above %s = %v", tab, col, h, hv, l, lv)
				}
			}
		}
		return nil
	}
	base := []string{"hdfs", "lustre"}
	for _, c := range []struct {
		what, tab, col string
		hi, lo         []string
	}{
		{"write bb-async > lustre", "fig3", "MB/s", []string{"bb-async"}, []string{"lustre"}},
		{"write lustre > hdfs", "fig3", "MB/s", []string{"lustre"}, []string{"hdfs"}},
		{"read every bb scheme > lustre and hdfs", "fig4", "MB/s", bbSchemes, base},
		{"sort time of every bb scheme < hdfs and lustre", "fig5", "time(s)", base, bbSchemes},
		{"mix makespan of every bb scheme < hdfs and lustre", "fig8", "makespan(s)", base, bbSchemes},
	} {
		if err := above(c.tab, c.col, c.hi, c.lo); err != nil {
			return attempted, 0, checks, err
		}
		checks = append(checks, c.what)
	}
	for _, scheme := range []string{"bb-locality", "bb-sync"} {
		ok, err := lastCell(s.lastTabs["fig9"], scheme, "read-ok")
		if err != nil {
			return attempted, 0, checks, err
		}
		lost, err := lastCell(s.lastTabs["fig9"], scheme, "lost-blocks")
		if err != nil {
			return attempted, 0, checks, err
		}
		if ok != "true" || lost != "0" {
			return attempted, 0, checks, fmt.Errorf("fig9: %s read-ok=%s lost-blocks=%s after the crash", scheme, ok, lost)
		}
	}
	checks = append(checks, "fig9 bb-locality and bb-sync read ok with 0 lost blocks")
	return attempted, 0, checks, nil
}

// layers reads the per-experiment spans of the traced phase, then runs
// fig3, fig4 and fig5 with one backend compared at a time, and the probes.
func (s *suite) layers(tr *tracer, m map[string]float64) error {
	for _, id := range suiteIDs {
		m["span."+id+"_ms"] = medianMS(tr.durations(id))
	}
	defer hbb.CompareBackends(defaultBackends)
	root := tr.begin("backends", -1)
	for _, b := range tracedBackends {
		hbb.CompareBackends([]hbb.Backend{b})
		for _, p := range []struct{ what, id string }{{"write", "fig3"}, {"read", "fig4"}, {"sort", "fig5"}} {
			e, _ := hbb.ExperimentByID(p.id) // setupSuite found it
			name := p.what + "." + b.String()
			id := tr.begin(name, root)
			t := e.Run(hbb.ScaleSmall)
			tr.end(id)
			if len(t.Rows) == 0 || !strings.Contains(t.String(), b.String()) {
				return fmt.Errorf("%s with only %s compared has no row for it", p.id, b)
			}
			m["span."+name+"_ms"] = medianMS(tr.durations(name))
		}
	}
	tr.end(root)
	return simProbes(s.sz, tr, m)
}

func (s *suite) close() {}
