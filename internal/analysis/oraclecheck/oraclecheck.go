// Package oraclecheck enforces the repo's oracle discipline end to end.
//
// Every ablation toggle on core.Options — the Disable* switches and
// ScalarKernels — exists so that a fast path can be checked bit-for-bit
// against its reference twin. A toggle that users cannot reach, or that
// no test flips, is an oracle in name only. oraclecheck therefore
// requires, for each oracle field on core.Options:
//
//   - a field of the same name on the facade Config struct (the module
//     root package), so library users can reach the toggle;
//   - an assignment into core.Options somewhere in the facade (the
//     Config → Options plumbing actually carries it);
//   - a reference from a main package under cmd/, so the CLI exposes a
//     flag for it;
//   - a reference from at least one _test.go file anywhere, so some
//     test actually exercises the toggle.
//
// It also flags the reverse rot: an oracle-named field on the facade
// Config with no counterpart on core.Options.
//
// Finally, the plain reference driver (internal/reference) that the
// equivalence tests compare every optimisation against must stay a
// test-only oracle: any import of it from a non-_test.go file is
// reported, so it cannot quietly become a second production path.
//
// The analyzer is whole-program: the invariant ties four parts of the
// tree together and cannot be checked one package at a time.
package oraclecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lshcluster/internal/analysis"
)

// Name is the analyzer's name, as used in diagnostics.
const Name = "oraclecheck"

// Analyzer is the oraclecheck instance.
var Analyzer = &analysis.Analyzer{
	Name:         Name,
	Doc:          "every Disable*/ScalarKernels oracle toggle on core.Options must reach the facade Config, a CLI flag and a test; internal/reference is imported by tests only",
	Run:          run,
	WholeProgram: true,
}

// CorePackage is the import-path suffix of the package declaring
// Options.
const CorePackage = "internal/core"

// ReferencePackage is the import-path suffix of the test-only reference
// driver.
const ReferencePackage = "internal/reference"

// isOracleField reports whether an exported field name is an oracle
// toggle.
func isOracleField(name string) bool {
	return strings.HasPrefix(name, "Disable") || name == "ScalarKernels"
}

// reach is the set of contexts a field reference was seen in.
type reach struct {
	facade bool // assigned into core.Options inside the facade package
	cli    bool // referenced from a main package under cmd/
	test   bool // referenced from any _test.go file
}

func run(pass *analysis.Pass) error {
	prog := pass.Prog
	reportReferenceImports(pass)
	core := findCore(prog)
	if core == nil {
		// Fixture or tree without a core package: nothing to enforce.
		return nil
	}
	_, options := analysis.StructNamed(core, "Options")
	if options == nil {
		pass.Reportf(core.Files[0].Pos(),
			"%s declares no Options struct; oraclecheck cannot verify the oracle toggles", core.Path)
		return nil
	}

	// The oracle fields, with their declaration positions.
	oracle := map[string]token.Pos{}
	for i := 0; i < options.NumFields(); i++ {
		f := options.Field(i)
		if f.Exported() && isOracleField(f.Name()) {
			oracle[f.Name()] = f.Pos()
		}
	}
	if len(oracle) == 0 {
		return nil
	}

	seen := map[string]*reach{}
	for name := range oracle {
		seen[name] = &reach{}
	}

	var configStruct *types.Struct
	for _, pkg := range prog.Pkgs {
		if pkg.Path == prog.ModulePath {
			if _, st := analysis.StructNamed(pkg, "Config"); st != nil {
				configStruct = st
			}
		}
	}

	for _, pkg := range prog.Pkgs {
		isFacade := pkg.Path == prog.ModulePath
		isCLI := pkg.Name == "main" && strings.Contains(pkg.Path, "/cmd/")
		for _, file := range pkg.Files {
			inTest := prog.IsTestFile(file.Pos())
			if !isFacade && !isCLI && !inTest {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				for _, name := range optionsFieldRefs(pkg, n, oracle) {
					r := seen[name]
					if inTest {
						r.test = true
					}
					if isFacade && !inTest {
						r.facade = true
					}
					if isCLI && !inTest {
						r.cli = true
					}
				}
				return true
			})
		}
	}

	for name, pos := range oracle {
		r := seen[name]
		if configStruct == nil {
			// Reported once below against the module root.
		} else if !configFieldExists(configStruct, name) {
			pass.Reportf(pos,
				"oracle toggle Options.%s is not mirrored on the facade Config struct; library users cannot reach it", name)
		}
		if !r.facade {
			pass.Reportf(pos,
				"oracle toggle Options.%s is never assigned into core.Options by the facade; the Config plumbing does not carry it", name)
		}
		if !r.cli {
			pass.Reportf(pos,
				"oracle toggle Options.%s is not referenced from any cmd/ main package; the CLI exposes no flag for it", name)
		}
		if !r.test {
			pass.Reportf(pos,
				"oracle toggle Options.%s is not referenced from any _test.go file; no test exercises the oracle", name)
		}
	}

	if configStruct == nil {
		root := prog.Lookup(prog.ModulePath)
		if root != nil && len(root.Files) > 0 {
			pass.Reportf(root.Files[0].Pos(),
				"module root package declares no Config struct; the %d oracle toggles on core.Options are unreachable for library users", len(oracle))
		}
	} else {
		// Reverse rot: oracle-named Config fields with no Options twin.
		for i := 0; i < configStruct.NumFields(); i++ {
			f := configStruct.Field(i)
			if !f.Exported() || !isOracleField(f.Name()) {
				continue
			}
			if _, ok := oracle[f.Name()]; !ok {
				pass.Reportf(f.Pos(),
					"facade Config.%s has no counterpart field on core.Options; remove the stale toggle or plumb it", f.Name())
			}
		}
	}
	return nil
}

// reportReferenceImports flags every import of the reference driver
// from a file that is not a _test.go file.
func reportReferenceImports(pass *analysis.Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			if pass.Prog.IsTestFile(file.Pos()) {
				continue
			}
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if analysis.HasPathSuffix(path, ReferencePackage) {
					pass.Reportf(imp.Pos(),
						"production file imports %s; the reference driver is a test-only oracle", path)
				}
			}
		}
	}
}

// findCore returns the source-checked core package (the non-xtest
// variant whose path ends in internal/core), or nil.
func findCore(prog *analysis.Program) *analysis.Package {
	for _, pkg := range prog.Pkgs {
		if analysis.HasPathSuffix(pkg.Path, CorePackage) && !strings.HasSuffix(pkg.Path, "_test") {
			return pkg
		}
	}
	return nil
}

// optionsFieldRefs returns the oracle-field names n references, via
// either a core.Options composite-literal key or a selector on an
// Options-typed expression.
func optionsFieldRefs(pkg *analysis.Package, n ast.Node, oracle map[string]token.Pos) []string {
	var names []string
	switch e := n.(type) {
	case *ast.CompositeLit:
		if t := pkg.Info.TypeOf(e); t == nil || !analysis.NamedType(t, CorePackage, "Options") {
			return nil
		}
		for _, el := range e.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				if _, isOracle := oracle[id.Name]; isOracle {
					names = append(names, id.Name)
				}
			}
		}
	case *ast.SelectorExpr:
		if _, isOracle := oracle[e.Sel.Name]; !isOracle {
			return nil
		}
		if t := pkg.Info.TypeOf(e.X); t != nil && analysis.NamedType(t, CorePackage, "Options") {
			names = append(names, e.Sel.Name)
		}
	}
	return names
}

// configFieldExists reports whether the facade Config struct declares an
// exported field with the given name.
func configFieldExists(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}
