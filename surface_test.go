package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// keptWithoutCaller lists the exported names under internal/ that no
// file outside their own package's tests references, and why each
// stays anyway.
var keptWithoutCaller = map[string]string{
	"internal/tripled/cluster.Client.Repair": "recovery code: resyncs and readmits a node that missed writes (no production caller yet — ROADMAP direction 3)",
	"internal/cryptopan.Cached.Evictions":    "fault counter: the only signal that the memo's cap is being hit (ROADMAP direction 1's first counter)",
	"internal/tripled.TransportError.Unwrap": "called by errors.Is / errors.As through the error chain, never by name",

	// Chaos-proxy knobs that only the proxy's own wire tests turn so far.
	"internal/faultinject.Proxy.ResetAfterBytes": "the reset-mid-BATCH fault of e2e case T00019: a truncated batch applies nothing",
	"internal/faultinject.Proxy.SetDelay":        "Delay mode's latency; -chaos delay runs the 20 ms default",
	"internal/faultinject.Proxy.ForwardedBytes":  "the count every *AfterBytes trigger fires on, read to prove a trigger fired at its exact byte",
}

// TestEveryExportedNameHasACaller is the lock on internal/'s surface:
// every exported function or method declared in a non-test file under
// internal/ must be called from outside its own package — by another
// package's tests, or by a live declaration in cmd/, benchmark/, the
// root package or another internal/ package, live meaning reached from
// those roots. An examples/ program is a root too, but its call alone
// does not keep an exported name: an example shows API that a command
// or another package already uses. It
// resolves names with go/parser alone: a function by its package, a
// method by its bare name (so Add or Config pass by collision). That
// makes it a lower bound which keeps a tail of test-only API from
// regrowing unnoticed, not a proof of reachability.
func TestEveryExportedNameHasACaller(t *testing.T) {
	// A node is one top-level declaration; it names what it declares
	// ("dir.Name", or ".Name" for a method) and what it mentions.
	type node struct {
		dir      string
		test     bool
		declares []string
		mentions map[string]bool
		exported string // "dir.Recv.Name" when it is a gated declaration
	}
	var nodes []*node
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := make(map[string]string) // local name → directory
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p, ok := strings.CutPrefix(p, "repro/"); ok {
				local := p[strings.LastIndexByte(p, '/')+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = p
			}
		}
		for _, d := range file.Decls {
			n := &node{dir: dir, test: strings.HasSuffix(path, "_test.go"), mentions: make(map[string]bool)}
			nodes = append(nodes, n)
			declared := make(map[*ast.Ident]bool)
			declare := func(id *ast.Ident, recv string) {
				declared[id] = true
				key := dir + "." + id.Name
				if recv != "" {
					key = "." + id.Name
				}
				n.declares = append(n.declares, key)
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
				}
				declare(d.Name, recv)
				if d.Name.IsExported() && strings.HasPrefix(dir, "internal/") && !n.test && (recv == "" || ast.IsExported(recv)) {
					n.exported = dir + "." + strings.TrimPrefix(recv+".", ".") + d.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "")
						}
					}
				}
			}
			selected := make(map[*ast.Ident]bool)
			ast.Inspect(d, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.SelectorExpr:
					selected[x.Sel] = true
					if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
						n.mentions[imports[pkg.Name]+"."+x.Sel.Name] = true
					}
					n.mentions["."+x.Sel.Name] = true
				case *ast.Ident:
					if !declared[x] && !selected[x] {
						n.mentions[dir+"."+x.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Roots: every declaration outside internal/, every test, init and
	// blank declarations, and what keptWithoutCaller keeps. A test
	// reaches other packages' names only.
	declaredBy := make(map[string][]*node)
	for _, n := range nodes {
		for _, name := range n.declares {
			declaredBy[name] = append(declaredBy[name], n)
		}
	}
	// live is what the roots reach; called is what a live node outside
	// the declaring package, and not an example, mentions.
	live := make(map[*node]bool)
	called := make(map[*node]bool)
	var work []*node
	for _, n := range nodes {
		root := n.test || !strings.HasPrefix(n.dir, "internal/") || keptWithoutCaller[n.exported] != ""
		for _, name := range n.declares {
			root = root || strings.HasSuffix(name, ".init") || strings.HasSuffix(name, "._")
		}
		if root {
			live[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		example := strings.HasPrefix(n.dir, "examples/")
		for name := range n.mentions {
			for _, m := range declaredBy[name] {
				if n.test && n.dir == m.dir {
					continue
				}
				if n.dir != m.dir && !example {
					called[m] = true
				}
				if !live[m] {
					live[m] = true
					work = append(work, m)
				}
			}
		}
	}

	var orphans []string
	total := 0
	known := make(map[string]bool)
	for _, n := range nodes {
		if n.exported == "" {
			continue
		}
		total++
		known[n.exported] = true
		if !called[n] && keptWithoutCaller[n.exported] == "" {
			orphans = append(orphans, n.exported)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported functions and methods under internal/ are reached by nothing but their own package or an example:\n  %s\n"+
			"Rule: a name stays if cmd/, benchmark/ or another internal/ package reaches it, or if another package's tests use it as a reference or fixture; an examples/ program alone is not a caller. "+
			"Otherwise delete it with the tests that exist only for it, or move a test-only helper into the _test.go that needs it; "+
			"safety code with no caller yet goes in keptWithoutCaller with its reason.",
			len(orphans), total, strings.Join(orphans, "\n  "))
	}
	t.Logf("%d exported functions and methods under internal/, %d kept without a caller", total, len(keptWithoutCaller))
	for _, n := range nodes {
		if keptWithoutCaller[n.exported] != "" && called[n] {
			t.Errorf("keptWithoutCaller names %s, which has a caller now: drop the entry", n.exported)
		}
	}
	for name := range keptWithoutCaller {
		if !known[name] {
			t.Errorf("keptWithoutCaller names %s, which is not declared", name)
		}
	}
}

func receiverName(expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

func TestMain(m *testing.M) { testkit.Main(m, nil) }

// TestStudyFlagSurface locks the flag names of the commands that run a
// study: each built binary's -h listing (flag.PrintDefaults, a
// flag.VisitAll walk) must name exactly the flags in
// testdata/study_flags.txt, one "command: -flag ..." line per command.
func TestStudyFlagSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two commands")
	}
	flagLine := regexp.MustCompile(`(?m)^  (-\S+)`)
	var got strings.Builder
	for _, c := range []string{"experiments", "studyd"} {
		r := testkit.Run(t, exec.Command(testkit.Build(t, "./cmd/"+c), "-h"))
		if r.Code != 0 {
			t.Fatalf("%s -h: exit %d\n%s", c, r.Code, r.Stderr)
		}
		var names []string
		for _, m := range flagLine.FindAllStringSubmatch(r.Stdout+r.Stderr, -1) {
			names = append(names, m[1])
		}
		got.WriteString(c + ": " + strings.Join(names, " ") + "\n")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "study_flags.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("study command flags drifted:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
