package harness

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// smokeOptions keeps harness tests fast while exercising the full path.
func smokeOptions() Options {
	return Options{Cores: []int{1, 4}, Iters: 20}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{Title: "demo"}
	tbl.Rows = []Row{
		{Series: "a", Cores: 1, Value: 1.5, Unit: "x"},
		{Series: "a", Cores: 4, Value: 6.0, Unit: "x"},
		{Series: "b", Cores: 1, Value: 2.0, Unit: "x"},
	}
	var b strings.Builder
	tbl.Print(&b)
	out := b.String()
	for _, want := range []string{"demo", "a", "b", "1.50", "6.00", "(x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	tables := Fig5(smokeOptions())
	if len(tables) != 3 {
		t.Fatalf("Fig5 produced %d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
		for _, r := range tbl.Rows {
			if r.Value <= 0 {
				t.Errorf("%s %s@%d: non-positive value", tbl.Title, r.Series, r.Cores)
			}
		}
	}
	// The headline relation at 4 cores: radixvm beats linux on local.
	local := tables[0]
	vals := map[string]float64{}
	for _, r := range local.Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["radixvm"] <= vals["linux"] {
		t.Errorf("local@4: radixvm %.2f <= linux %.2f", vals["radixvm"], vals["linux"])
	}
}

func TestFig8Smoke(t *testing.T) {
	tbl := Fig8(smokeOptions())
	vals := map[string]float64{}
	for _, r := range tbl.Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["refcache"] <= vals["shared"] {
		t.Errorf("fig8@4: refcache %.2f <= shared %.2f", vals["refcache"], vals["shared"])
	}
}

func TestFig9Smoke(t *testing.T) {
	tables := Fig9(smokeOptions())
	if len(tables) != 3 {
		t.Fatalf("Fig9 produced %d tables", len(tables))
	}
	// Local at 4 cores: per-core page tables must beat shared (broadcast
	// shootdowns).
	vals := map[string]float64{}
	for _, r := range tables[0].Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["percore"] <= vals["shared"] {
		t.Errorf("fig9 local@4: percore %.2f <= shared %.2f", vals["percore"], vals["shared"])
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in four full application layouts")
	}
	out := Table2()
	for _, app := range []string{"Firefox", "Chrome", "Apache", "MySQL"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table2 missing %s:\n%s", app, out)
		}
	}
}

func TestTable1CountsSources(t *testing.T) {
	out := Table1("../..")
	if !strings.Contains(out, "Radix tree") || strings.Contains(out, "source not found") {
		t.Errorf("Table1 failed to count sources:\n%s", out)
	}
	// Every component row carries a code column smaller than its line count.
	lines := strings.Split(out, "\n")
	if f := strings.Fields(lines[1]); len(f) < 3 || f[1] != "lines" || f[2] != "code" {
		t.Fatalf("Table1 header has no code column beside lines: %q", lines[1])
	}
	counts := regexp.MustCompile(`^.{28} +(\d+) +(\d+)`)
	for _, row := range lines[2:] {
		if row == "" {
			continue
		}
		m := counts.FindStringSubmatch(row)
		if m == nil {
			t.Errorf("row without lines and code counts: %q", row)
			continue
		}
		total, _ := strconv.Atoi(m[1])
		code, _ := strconv.Atoi(m[2])
		if code <= 0 || code >= total {
			t.Errorf("code %d not in (0, lines %d): %q", code, total, row)
		}
	}
}

func TestStructureBenchSeries(t *testing.T) {
	o := Options{Cores: []int{2}, Iters: 5}
	tbl := Fig7(o)
	series := map[string]bool{}
	for _, r := range tbl.Rows {
		series[r.Series] = true
	}
	for _, want := range []string{"0 writers", "10 writers", "40 writers"} {
		if !series[want] {
			t.Errorf("Fig7 missing series %q", want)
		}
	}
}
