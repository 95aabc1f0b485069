package harness

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// figure is one committed figures/*.txt file: for each "== title ==" table,
// series name -> core count -> cell.
type figure map[string]map[string]map[int]float64

// readFigure parses a committed figure as Table.Print wrote it: a title line,
// a "series \ cores" header naming the core counts, one row per series whose
// last fields are the cells (series names may contain spaces).
func readFigure(t *testing.T, name string) figure {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "figures", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	fig := figure{}
	var table map[string]map[int]float64
	var cores []int
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "==":
			table = map[string]map[int]float64{}
			fig[strings.Trim(line, "= ")] = table
		case f[0] == "series":
			cores = cores[:0]
			for _, s := range f[3:] { // after `series \ cores`
				if n, err := strconv.Atoi(s); err == nil {
					cores = append(cores, n)
				}
			}
		default:
			if len(f) <= len(cores) {
				t.Fatalf("%s: row %q has fewer cells than the header's %d core counts", name, line, len(cores))
			}
			row := map[int]float64{}
			for i, s := range f[len(f)-len(cores):] {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					t.Fatalf("%s: row %q: %v", name, line, err)
				}
				row[cores[i]] = v
			}
			table[strings.Join(f[:len(f)-len(cores)], " ")] = row
		}
	}
	return fig
}

// table returns the figure's one table whose title contains sub.
func (f figure) table(t *testing.T, sub string) map[string]map[int]float64 {
	t.Helper()
	var found map[string]map[int]float64
	for title, tbl := range f {
		if strings.Contains(title, sub) {
			if found != nil {
				t.Fatalf("two tables match %q", sub)
			}
			found = tbl
		}
	}
	if found == nil {
		t.Fatalf("no table matches %q", sub)
	}
	return found
}

// TestPaperClaims reads the *committed* figures and asserts the paper's shape
// claims they can show, as inequalities: a re-baseline that silently loses one
// fails here, in milliseconds, whatever byte-for-byte gate it passed.
func TestPaperClaims(t *testing.T) {
	atLeast := func(what string, got, want float64) {
		t.Helper()
		if got < want {
			t.Errorf("%s = %.2f, want >= %.2f", what, got, want)
		}
	}
	atMost := func(what string, got, want float64) {
		t.Helper()
		if got > want {
			t.Errorf("%s = %.2f, want <= %.2f", what, got, want)
		}
	}

	// Figure 5, local: radixvm scales linearly, the baselines not at all.
	local := readFigure(t, "fig5").table(t, "(local)")
	atLeast("fig5 local radixvm 80-core / 1-core", local["radixvm"][80]/local["radixvm"][1], 75)
	for _, base := range []string{"bonsai", "linux"} {
		for cores, v := range local[base] {
			atMost("fig5 local "+base+" "+strconv.Itoa(cores)+"-core / 1-core", v/local[base][1], 1.3)
		}
	}

	// Figures 6 and 7: writers do not disturb radix lookups; they cripple the skip list's.
	radix := readFigure(t, "fig7").table(t, "Figure 7")
	atLeast("fig7 40 writers / 0 writers at 80 cores", radix["40 writers"][80]/radix["0 writers"][80], 0.99)
	skip := readFigure(t, "fig6").table(t, "Figure 6")
	atMost("fig6 5 writers / 0 writers at 80 cores", skip["5 writers"][80]/skip["0 writers"][80], 0.30)

	// Figure 8: refcache > snzi > shared counter at 80 cores, the shared counter peaking by 40.
	ctr := readFigure(t, "fig8").table(t, "Figure 8")
	if r, s, sh := ctr["refcache"][80], ctr["snzi"][80], ctr["shared"][80]; !(r > s && s > sh) {
		t.Errorf("fig8 at 80 cores: refcache %.2f, snzi %.2f, shared %.2f, want refcache > snzi > shared", r, s, sh)
	}
	peak := 0
	for cores, v := range ctr["shared"] {
		if peak == 0 || v > ctr["shared"][peak] {
			peak = cores
		}
	}
	if peak > 40 {
		t.Errorf("fig8 shared counter peaks at %d cores, want by 40", peak)
	}

	// Figure 9: per-core page tables win local by far and pay ~4x on global.
	fig9 := readFigure(t, "fig9")
	l9, g9 := fig9.table(t, "(local)"), fig9.table(t, "(global)")
	atLeast("fig9 local percore / shared at 80 cores", l9["percore"][80]/l9["shared"][80], 50)
	price := g9["shared"][80] / g9["percore"][80]
	atLeast("fig9 global shared / percore at 80 cores", price, 3)
	atMost("fig9 global shared / percore at 80 cores", price, 5)

	// Figure 4: Metis with 64 KB allocation units, radixvm over either baseline.
	metis := readFigure(t, "fig4").table(t, "Figure 4")
	for _, base := range []string{"bonsai/64KB", "linux/64KB"} {
		atLeast("fig4 radixvm/64KB / "+base+" at 80 cores", metis["radixvm/64KB"][80]/metis[base][80], 2.5)
	}

	// Clone: forks of one template scale, because sibling children copying
	// the template's frozen nodes only read them: radixvm's row does not fall
	// from 10 to 80 cores, and reaches 1 000 K clones/s at 80.
	clone := readFigure(t, "clone").table(t, "clone")["radixvm"]
	for _, pair := range [][2]int{{10, 20}, {20, 40}, {40, 80}} {
		atLeast("clone radixvm "+strconv.Itoa(pair[1])+"-core / "+strconv.Itoa(pair[0])+"-core",
			clone[pair[1]]/clone[pair[0]], 1)
	}
	atLeast("clone radixvm at 80 cores (K clones/s)", clone[80], 1000)
}
