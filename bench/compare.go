package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specFile is the part of BENCHMARK.json -compare needs.
type specFile struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdicts, as the choosing-metrics guide words them.
const (
	vSame       = "same"
	vBetter     = "better"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// judge compares one end-to-end metric of run b against run a.
//
// Every metric compares within the bound BENCHMARK.json gives it — setup_s
// within the bound or setupFloorS, whichever is larger. The virtual
// metrics' bound is 1e-12, so any difference in them is better or worse:
// they must repeat bit for bit. A metric is unresolved when either run's
// own spread over its rounds exceeds the bound, because then the bound
// cannot tell a change from noise.
func judge(d metricDef, s specMetric, a, b, iqrA, iqrB float64) string {
	worseBy := b - a // positive when b is worse
	if s.Better == "higher" {
		worseBy = a - b
	}
	if max(iqrA, iqrB) > 100*s.Bound {
		return vUnresolved
	}
	band := s.Bound * a
	if d.name == "setup_s" {
		band = max(band, setupFloorS)
	}
	switch {
	case worseBy > band:
		return vWorse
	case worseBy < -band:
		return vBetter
	}
	return vSame
}

// compareFiles prints, per workload and end-to-end metric, how document b
// stands against document a, then the failure counts and virtual
// fingerprints. It reports whether anything got worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	var spec specFile
	var a, b document
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return false, err
		}
	}
	return compareDocs(w, &spec, &a, &b), nil
}

func compareDocs(w io.Writer, spec *specFile, a, b *document) (worse bool) {
	bounds := map[string]specMetric{}
	for _, s := range spec.EndToEnd {
		bounds[s.Name] = s
	}
	fmt.Fprintf(w, "%-8s %-24s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-8s missing from one document\n", wl.name)
			worse = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			v := judge(d, bounds[d.name], va, vb, wa.RoundIQRPct[d.name], wb.RoundIQRPct[d.name])
			worse = worse || v == vWorse
			fmt.Fprintf(w, "%-8s %-24s %14.6g %14.6g %8.3f  %s\n", wl.name, d.name, va, vb, share(vb, va), v)
		}
		v := vSame
		switch {
		case wb.Failed > wa.Failed:
			v, worse = vWorse, true
		case wb.Failed < wa.Failed:
			v = vBetter
		}
		fmt.Fprintf(w, "%-8s %-24s %14d %14d %8s  %s\n", wl.name, "failed", wa.Failed, wb.Failed, "", v)
		if wa.Fingerprint != wb.Fingerprint {
			// A re-baseline is legal; it is reported, not failed.
			fmt.Fprintf(w, "%-8s virtual fingerprint changed: %s -> %s\n", wl.name, wa.Fingerprint, wb.Fingerprint)
		}
	}
	return worse
}
