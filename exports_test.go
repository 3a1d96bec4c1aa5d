package lonviz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowed names the exported functions and methods that only tests
// call, each with the reason it stays. Only two kinds belong here: test
// infrastructure that other packages' tests drive, and reference
// implementations that tests compare the real code against.
var exportAllowed = map[string]string{
	// Reference implementations that tests compare the renderer against.
	"geom.Camera.Project":             "reference: the per-ray render oracle projects each sample through it",
	"geom.Camera.PrimaryRayRaw":       "reference: the per-ray render oracle casts its rays with it",
	"geom.Sphere.IntersectRayGeneral": "reference: the general solver the unit-sphere intersection is checked against",
	"render.Image.SampleBilinear":     "reference: the per-ray render oracle's texture lookup",

	// Test infrastructure: the fault layer the chaos, SLO, flight-recorder
	// and ibp tests drive, one control per fault they inject or count.
	"netsim.NewFaultDialer":          "test infrastructure: wraps a dialer with seeded per-depot faults",
	"netsim.FaultDialer.SetFault":    "test infrastructure: sets one depot's per-reply fault mix",
	"netsim.FaultDialer.SetFallback": "test infrastructure: sets the fault mix of every other depot",
	"netsim.FaultDialer.Kill":        "test infrastructure: kills a depot's connections and refuses new ones",
	"netsim.FaultDialer.Revive":      "test infrastructure: lets a killed depot accept dials again",
	"netsim.FaultDialer.Dials":       "test infrastructure: counts the dials that reached a depot",
	"netsim.FaultDialer.Refused":     "test infrastructure: counts the dials a depot refused",

	// Test infrastructure: the fleet runner's readouts, which the overload
	// end-to-end test judges a loaded fleet by.
	"session.FleetResult.AggregateFPS":   "test infrastructure: the fleet's throughput",
	"session.FleetResult.WorstP99Ms":     "test infrastructure: the slowest client's tail latency",
	"session.FleetResult.FairnessSpread": "test infrastructure: the fastest client's throughput over the slowest's",
}

// exportedFunc is one exported function or method declared in a non-test
// file under internal/ or cmd/.
type exportedFunc struct {
	key    string // package base name, receiver type if a method, and name
	name   string
	method bool
	file   string
}

// TestEveryExportHasACaller: every exported function and method declared in
// a non-test file under internal/ or cmd/ has a caller that is not a test —
// its name appears in some non-test file (a main, an example, the
// benchmark, its own package) outside its own declaration. One that only
// tests call is code the system never runs; this test keeps such API from
// accumulating. A method whose name an interface declares (one of the
// repository's, or one of stdInterfaceMethods) is exempt: it is called
// through the interface. The scan goes by name, without type checking, so
// a name that some other function or field also carries counts as used.
func TestEveryExportHasACaller(t *testing.T) {
	funcs, uses, ifaceMethods := scanExports(t)
	if len(funcs) < 300 {
		t.Fatalf("found only %d exported functions and methods; is the walk broken?", len(funcs))
	}
	var uncalled, allowed []string
	for _, f := range funcs {
		if uses[f.name] > 0 || (f.method && ifaceMethods[f.name]) {
			continue
		}
		if _, ok := exportAllowed[f.key]; ok {
			allowed = append(allowed, f.key)
			continue
		}
		uncalled = append(uncalled, f.file+": "+f.key)
	}
	t.Logf("%d exported functions and methods under internal/ and cmd/: %d without a non-test caller, %d of them allow-listed",
		len(funcs), len(uncalled)+len(allowed), len(allowed))
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s has no caller outside tests: delete it, or move it into the tests that use it", u)
	}
	listed := map[string]bool{}
	for _, a := range allowed {
		listed[a] = true
	}
	for k := range exportAllowed {
		if !listed[k] {
			t.Errorf("exportAllowed lists %s, which is gone or has a non-test caller now: drop the entry", k)
		}
	}
}

// stdInterfaceMethods are methods of the standard library's interfaces that
// the repository's types implement and that only the standard library may
// call: fmt.Stringer, error and its Unwrap, json.Marshaler and Unmarshaler,
// http.Handler, the io interfaces, and net.Conn and net.Listener.
var stdInterfaceMethods = []string{
	"String", "Error", "Unwrap",
	"MarshalJSON", "UnmarshalJSON",
	"ServeHTTP",
	"Read", "Write", "Close",
	"LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
	"Accept", "Addr",
}

// scanExports parses every non-test .go file under the module root. It
// returns the exported functions and methods declared under internal/ and
// cmd/, how often each identifier appears outside the name of a function
// declaration, and the method names of every interface the repository
// declares plus stdInterfaceMethods.
func scanExports(t *testing.T) ([]exportedFunc, map[string]int, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	var funcs []exportedFunc
	uses := map[string]int{}
	ifaceMethods := map[string]bool{}
	for _, m := range stdInterfaceMethods {
		ifaceMethods[m] = true
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
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
		dir := filepath.ToSlash(filepath.Dir(p))
		declares := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !declares || !fd.Name.IsExported() {
				continue
			}
			fn := exportedFunc{key: path.Base(dir), name: fd.Name.Name, method: fd.Recv != nil, file: p}
			if fn.method {
				fn.key += "." + recvName(fd.Recv.List[0].Type)
			}
			fn.key += "." + fn.name
			funcs = append(funcs, fn)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declNames[x] {
					uses[x.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, uses, ifaceMethods
}

// recvName is the type name of a method's receiver: T for T, *T, T[P] and
// *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
