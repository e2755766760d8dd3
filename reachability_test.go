package consolidation

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names package-level declarations under internal/ that no
// program reaches but that stay, each with its reason. Keys are
// "<package directory>.<name>".
var reachAllowlist = map[string]string{
	"internal/erlang.ServersContinuous": "oracle of plan's TestPlanHeteroAtLeastContinuousBound",
	"internal/stats.Autocorrelation":    "used by workload's tests",
	"internal/stats.ExpSpec":            "used by the tests of eval and scenario",
	"internal/stats.ParetoWithMean":     "used by workload's tests",
	"internal/stats.RelativeError":      "used by the tests of cluster, queueing and workload",
	"internal/stats.SCV":                "used by workload's tests",
	"internal/stats.Variance":           "used by workload's tests",
	"internal/serve.ErrorResponse":      "the documented error envelope of the service",
}

// TestReachability fails on any package-level declaration under internal/
// that no program reaches: code that only tests call, or nothing at all.
// The walk starts at the main and init functions of every package in both
// modules (the root one and perfbench), at blank declarations, at the root
// package's exported names and at reachAllowlist.
func TestReachability(t *testing.T) {
	dead, err := unreachable(".")
	if err != nil {
		t.Fatal(err)
	}
	stale := map[string]bool{}
	for key := range reachAllowlist {
		stale[key] = true
	}
	for _, d := range dead {
		if stale[d.key] {
			delete(stale, d.key)
			continue
		}
		t.Errorf("%s %s: no program reaches it; delete it, or move it next to the tests that use it", d.pos, d.key)
	}
	for key := range stale {
		t.Errorf("allowlist entry %s is reached by a program or no longer exists; drop it", key)
	}
}

// TestReachabilityFixture runs the walk on a small tree whose dead and live
// declarations are known.
func TestReachabilityFixture(t *testing.T) {
	dead, err := unreachable(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.key)
	}
	want := []string{
		"internal/lib.DeadExported",
		"internal/lib.TestOnly",
		"internal/lib.deadUnexported",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
}

// deadDecl is a package-level name that no root reaches.
type deadDecl struct {
	key string // "<package directory>.<name>", the directory relative to the walk's root
	pos token.Position
}

// reachPkg holds one package's non-test declarations.
type reachPkg struct {
	dir     string
	name    string
	decls   map[string][]reachDecl // package-level names other than methods
	methods map[string][]reachDecl // receiver type name -> its methods
	roots   []reachDecl            // main, init and blank declarations
	live    map[string]bool
}

// reachDecl is one declaration's syntax and the file it is in.
type reachDecl struct {
	node ast.Node
	pos  token.Pos
	file *ast.File
}

// unreachable parses the non-test Go files under root, skipping testdata
// and dot-directories, and returns the package-level names under internal/
// that no root reaches, sorted. A directory holding a go.mod starts a
// module. The walk reads syntax only, so it counts a mention of a name
// even where a local variable shadows it.
func unreachable(root string) ([]deadDecl, error) {
	fset := token.NewFileSet()
	dirImport := map[string]string{} // directory -> import path
	pkgs := map[string]*reachPkg{}   // import path -> package
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			mod, err := readModulePath(filepath.Join(p, "go.mod"))
			switch {
			case err == nil:
				dirImport[rel] = mod
			case !os.IsNotExist(err):
				return err
			case rel != ".":
				dirImport[rel] = dirImport[path.Dir(rel)] + "/" + d.Name()
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(rel)
		pkg := pkgs[dirImport[dir]]
		if pkg == nil {
			pkg = &reachPkg{dir: dir, name: f.Name.Name, decls: map[string][]reachDecl{},
				methods: map[string][]reachDecl{}, live: map[string]bool{}}
			pkgs[dirImport[dir]] = pkg
		}
		add := func(name string, node ast.Node, pos token.Pos) {
			rd := reachDecl{node, pos, f}
			if name == "_" {
				pkg.roots = append(pkg.roots, rd)
			} else {
				pkg.decls[name] = append(pkg.decls[name], rd)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch name := decl.Name.Name; {
				case decl.Recv != nil:
					recv := receiverType(decl.Recv.List[0].Type)
					pkg.methods[recv] = append(pkg.methods[recv], reachDecl{decl, decl.Name.Pos(), f})
				case name == "init" || name == "main":
					pkg.roots = append(pkg.roots, reachDecl{decl, decl.Name.Pos(), f})
				default:
					add(name, decl, decl.Name.Pos())
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec, spec.Name.Pos())
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n.Name, spec, n.Pos())
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// imported returns the package file f imports as name, if it is one
	// of the walked packages. An import without a name goes by the
	// imported package's own name.
	imported := func(f *ast.File, name string) *reachPkg {
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			pkg := pkgs[ip]
			local := path.Base(ip)
			if pkg != nil {
				local = pkg.name
			}
			if spec.Name != nil {
				local = spec.Name.Name
			}
			if local == name {
				return pkg
			}
		}
		return nil
	}
	type work struct {
		pkg *reachPkg
		rd  reachDecl
	}
	var queue []work
	mark := func(pkg *reachPkg, name string) {
		if pkg.live[name] {
			return
		}
		pkg.live[name] = true
		for _, rd := range append(pkg.decls[name], pkg.methods[name]...) {
			queue = append(queue, work{pkg, rd})
		}
	}
	for _, pkg := range pkgs {
		for _, rd := range pkg.roots {
			queue = append(queue, work{pkg, rd})
		}
	}
	if pkg := pkgs[dirImport["."]]; pkg != nil {
		for name := range pkg.decls {
			if ast.IsExported(name) {
				mark(pkg, name)
			}
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// pkg.Name reaches another package; x.f names a field or
				// a method, no package-level name.
				if x, ok := n.X.(*ast.Ident); ok {
					if other := imported(w.rd.file, x.Name); other != nil {
						mark(other, n.Sel.Name)
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				// Parameter and field names declare; only the type mentions.
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				// A method's own name is no mention either.
				if fd, ok := w.rd.node.(*ast.FuncDecl); ok && n == fd.Name {
					return false
				}
				if _, ok := w.pkg.decls[n.Name]; ok {
					mark(w.pkg, n.Name)
				}
			}
			return true
		}
		ast.Inspect(w.rd.node, visit)
	}

	var dead []deadDecl
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.dir, "internal/") {
			continue
		}
		for name, rds := range pkg.decls {
			if !pkg.live[name] {
				dead = append(dead, deadDecl{pkg.dir + "." + name, fset.Position(rds[0].pos)})
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead, nil
}

// receiverType returns the type name of a method receiver, without the
// pointer and the type parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// readModulePath returns the module path a go.mod declares.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
