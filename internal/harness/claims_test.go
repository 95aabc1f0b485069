package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repo is the repository root, from this package's directory.
const repo = "../.."

// figureText returns a committed figures/*.txt file.
func figureText(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repo, "figures", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// figure is one committed figures/*.txt file: for each "== title ==" table,
// series name -> core count -> cell.
type figure map[string]map[string]map[int]float64

// readFigure parses a committed figure as Table.Print wrote it: a title line,
// a "series \ cores" header naming the core counts, one row per series whose
// last fields are the cells (series names may contain spaces).
func readFigure(t *testing.T, name string) figure {
	t.Helper()
	data := figureText(t, name)
	fig := figure{}
	var table map[string]map[int]float64
	var cores []int
	for _, line := range strings.Split(data, "\n") {
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

	// Figure 5, pipeline and global: radixvm far above either baseline at 80 cores.
	for _, panel := range []string{"(pipeline)", "(global)"} {
		tbl := readFigure(t, "fig5").table(t, panel)
		for _, base := range []string{"bonsai", "linux"} {
			atLeast("fig5 "+panel+" radixvm / "+base+" at 80 cores", tbl["radixvm"][80]/tbl[base][80], 10)
		}
	}

	// The two VM operations the paper argues about but does not measure:
	// write-protect shootdowns are targeted, and fork + COW breaks send none.
	for _, op := range []struct {
		name string
		min  float64
	}{{"mprotect", 50}, {"fork", 5}} {
		tbl := readFigure(t, op.name).table(t, op.name)
		for _, base := range []string{"bonsai", "linux"} {
			atLeast(op.name+" radixvm / "+base+" at 80 cores", tbl["radixvm"][80]/tbl[base][80], op.min)
		}
	}

	// Table 2: the radix tree's metadata costs a small multiple of Linux's.
	for _, r := range table2(t) {
		atLeast("table2 "+r.app+" radix / linux", r.ratio, 1)
		atMost("table2 "+r.app+" radix / linux", r.ratio, 3)
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
	if at := peak(ctr["shared"]); at > 40 {
		t.Errorf("fig8 shared counter peaks at %d cores, want by 40", at)
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

// appRatio is one application's row of figures/table2.txt: its radix-tree
// metadata over Linux's (the "xLinux" column).
type appRatio struct {
	app   string
	ratio float64
}

// table2 reads figures/table2.txt's four application rows.
func table2(t *testing.T) []appRatio {
	t.Helper()
	var rows []appRatio
	row := regexp.MustCompile(`(?m)^(\w+) .*\|\s+\d+ KB\s+([\d.]+)x \|`)
	for _, m := range row.FindAllStringSubmatch(figureText(t, "table2"), -1) {
		v, _ := strconv.ParseFloat(m[2], 64)
		rows = append(rows, appRatio{m[1], v})
	}
	if len(rows) != 4 {
		t.Fatalf("table2.txt: %d application rows, want 4", len(rows))
	}
	return rows
}

// peak returns the core count of a row's highest cell.
func peak(row map[int]float64) int {
	at := 0
	for cores, v := range row {
		if at == 0 || v > row[at] {
			at = cores
		}
	}
	return at
}

// readmeTable returns the cells of each body row of the first table below
// the README heading, backticks kept.
func readmeTable(t *testing.T, heading string) [][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repo, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	in, header := false, 0
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == heading:
			in = true
		case !in:
		case strings.HasPrefix(line, "|"):
			if header++; header <= 2 { // the header row and its |---| rule
				continue
			}
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		case header > 0:
			return rows
		case strings.HasPrefix(line, "## "):
			t.Fatalf("README: no table under %q", heading)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("README: no table under %q", heading)
	}
	return rows
}

// TestReadmeClaimsMatchFigures holds the README's claims table to the
// committed figures: each row's "ours" cell must be exactly what the figure
// says now, so the table cannot drift from what the code produces.
func TestReadmeClaimsMatchFigures(t *testing.T) {
	ratio := func(a, b float64) string { return fmt.Sprintf("%.1f×", a/b) }

	fig4 := readFigure(t, "fig4").table(t, "Figure 4")
	r64, l64, b64 := fig4["radixvm/64KB"][80], fig4["linux/64KB"][80], fig4["bonsai/64KB"][80]

	fig5 := readFigure(t, "fig5")
	local, pipe, global := fig5.table(t, "(local)"), fig5.table(t, "(pipeline)"), fig5.table(t, "(global)")
	flat := 0.0 // the baselines' highest cell over their own 1-core cell
	for _, base := range []string{"bonsai", "linux"} {
		for _, v := range local[base] {
			flat = max(flat, v/local[base][1])
		}
	}

	skip := readFigure(t, "fig6").table(t, "Figure 6")
	radix := readFigure(t, "fig7").table(t, "Figure 7")
	ctr := readFigure(t, "fig8").table(t, "Figure 8")
	sharedPeak := peak(ctr["shared"])
	fig9 := readFigure(t, "fig9")
	l9, g9 := fig9.table(t, "(local)"), fig9.table(t, "(global)")
	mprot := readFigure(t, "mprotect").table(t, "mprotect")
	fork := readFigure(t, "fork").table(t, "fork")

	code := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^(.{28}) +\d+ +(\d+)`).FindAllStringSubmatch(Table1(repo), -1) {
		code[strings.TrimSpace(m[1])] = m[2]
	}
	var t2 []string
	for _, r := range table2(t) {
		t2 = append(t2, fmt.Sprintf("%s %.1f×", r.app, r.ratio))
	}
	mem := map[string]string{}
	for _, m := range regexp.MustCompile(`at (\d+) cores ==\n.*\n.*\(([\d.]+)x;`).FindAllStringSubmatch(figureText(t, "memory"), -1) {
		mem[m[1]] = m[2]
	}

	want := map[string]string{
		"Fig 4: Metis, 64 KB allocation units": fmt.Sprintf("radixvm/64KB %.2f jobs/h, %.2f× the better baseline (linux/64KB %.2f, bonsai/64KB %.2f)",
			r64, r64/max(l64, b64), l64, b64),
		"Fig 5 (local): private mmap, fault, munmap": fmt.Sprintf("radixvm %.2f → %.2f M pages/s over 1 → 80 cores (%s); bonsai and linux at most %.2f× their 1-core cells",
			local["radixvm"][1], local["radixvm"][80], ratio(local["radixvm"][80], local["radixvm"][1]), flat),
		"Fig 5 (pipeline): regions passed core to core": fmt.Sprintf("radixvm %.2f M pages/s; bonsai %.2f, linux %.2f",
			pipe["radixvm"][80], pipe["bonsai"][80], pipe["linux"][80]),
		"Fig 5 (global): every core faults one shared region": fmt.Sprintf("radixvm %.2f M pages/s; bonsai %.2f, linux %.2f",
			global["radixvm"][80], global["bonsai"][80], global["linux"][80]),
		"Fig 6: skip-list lookups beside writers": fmt.Sprintf("5 writers leave %.1f %% of 0 writers' %.2f M lookups/s (%.2f)",
			100*skip["5 writers"][80]/skip["0 writers"][80], skip["0 writers"][80], skip["5 writers"][80]),
		"Fig 7: radix-tree lookups beside writers": fmt.Sprintf("40 writers leave %.1f %% of 0 writers' %.2f M lookups/s (%.2f)",
			100*radix["40 writers"][80]/radix["0 writers"][80], radix["0 writers"][80], radix["40 writers"][80]),
		"Fig 8: one shared page mapped and unmapped": fmt.Sprintf("refcache %.2f, snzi %.2f, shared %.2f M iters/s; shared peaks at %d cores (%.2f)",
			ctr["refcache"][80], ctr["snzi"][80], ctr["shared"][80], sharedPeak, ctr["shared"][sharedPeak]),
		"Fig 9 (local): per-core vs shared page tables": fmt.Sprintf("percore %.2f vs shared %.2f M pages/s (%s)",
			l9["percore"][80], l9["shared"][80], ratio(l9["percore"][80], l9["shared"][80])),
		"Fig 9 (global): per-core vs shared page tables": fmt.Sprintf("shared %.2f vs percore %.2f M pages/s (%.2f×)",
			g9["shared"][80], g9["percore"][80], g9["shared"][80]/g9["percore"][80]),
		"mprotect: write-protect cycling": fmt.Sprintf("radixvm %.2f → %.2f M pages/s over 1 → 80 cores (%s); bonsai %.2f, linux %.2f",
			mprot["radixvm"][1], mprot["radixvm"][80], ratio(mprot["radixvm"][80], mprot["radixvm"][1]), mprot["bonsai"][80], mprot["linux"][80]),
		"fork: fork + COW-touch cycling": fmt.Sprintf("radixvm %.2f M pages/s; bonsai %.2f, linux %.2f",
			fork["radixvm"][80], fork["bonsai"][80], fork["linux"][80]),
		"Table 1: code lines per component": fmt.Sprintf("radix tree %s, Refcache %s, MMU %s, VM ops %s (non-blank, non-comment Go)",
			code["Radix tree"], code["Refcache"], code["MMU abstraction"], code["Syscall interface (VM ops)"]),
		"Table 2: radix-tree metadata ÷ Linux's (VMA tree + page table)": strings.Join(t2, ", "),
		"§5.4: Metis per-core ÷ shared page-table memory":                fmt.Sprintf("%s× at 80 cores (%s× at 20)", mem["80"], mem["20"]),
	}

	seen := map[string]bool{}
	for _, row := range readmeTable(t, "## The paper's claims") {
		if len(row) != 4 {
			t.Errorf("README claim row has %d cells, want 4 (claim | paper | ours | gated by): %q", len(row), row)
			continue
		}
		claim, ours := row[0], row[2]
		w, ok := want[claim]
		switch {
		case !ok:
			t.Errorf("README claim %q is checked against no figure", claim)
		case seen[claim]:
			t.Errorf("README claim %q appears twice", claim)
		case ours != w:
			t.Errorf("README claim %q:\n ours    %s\n figures %s", claim, ours, w)
		}
		seen[claim] = true
	}
	for claim := range want {
		if !seen[claim] {
			t.Errorf("README claims table lacks %q", claim)
		}
	}
}

// TestReadmePackageMapMatchesTree holds the README's package map to the
// tree: every package under internal/ and cmd/ has exactly one row, and
// every row names a package that exists.
func TestReadmePackageMapMatchesTree(t *testing.T) {
	pkgs := map[string]bool{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repo, top), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				rel, _ := filepath.Rel(repo, filepath.Dir(path))
				pkgs[filepath.ToSlash(rel)] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := map[string]int{}
	for _, row := range readmeTable(t, "## Package map") {
		name := strings.Trim(row[0], "`")
		if rows[name]++; !pkgs[name] {
			t.Errorf("README package map names %q, which is not a package", name)
		}
	}
	for p := range pkgs {
		if rows[p] != 1 {
			t.Errorf("README package map has %d rows for %s, want 1", rows[p], p)
		}
	}
}

// TestSimulatorIsSingleThreaded holds every Go file under internal/ and cmd/,
// tests included, to the one execution model: hw.Sched runs one simulated
// core at a time on one goroutine, so model state is plain words. No file
// imports sync or sync/atomic, none starts a goroutine (a second goroutine
// driving a core would race those words, and the race detector cannot see it:
// it takes the schedule's coroutine hand-off for synchronization), and none
// converts through unsafe.Pointer (what -race's pointer checks would be left
// to check). No file is exempt.
func TestSimulatorIsSingleThreaded(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repo, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s: imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "unsafe" && n.Sel.Name == "Pointer" {
						t.Errorf("%s: unsafe.Pointer", fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("found no Go file under internal/ or cmd/")
	}
}
