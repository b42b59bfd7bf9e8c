package hbm2ecc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionFieldAllowlist names the exported fields of *Options/*Config
// structs that no program sets but that stay fields anyway, each with its
// reason. Keys are "importpath.Struct.Field".
var optionFieldAllowlist = map[string]string{
	"hbm2ecc/internal/classify.Options.ClusterGap":          "perfbench names classify.Options at its call site; dropping the type waits for a benchmark change",
	"hbm2ecc/internal/classify.Options.DamageThreshold":     "perfbench names classify.Options at its call site; dropping the type waits for a benchmark change",
	"hbm2ecc/internal/evalmc.Options.Data":                  "payload-invariance lock: tests show outcomes do not depend on the data word",
	"hbm2ecc/internal/fieldsim.FleetConfig.CrashFITPerNode": "the crash-heavy run needs a rate far above the default to see crashes in a short run",
	"hbm2ecc/internal/ondie.InferOptions.Validate":          "the inference tests would spend most of their time validating 256 samples",
	"hbm2ecc/internal/workload.Options.Kernels":             "tests run one kernel; the default three would make them slow",
}

// TestOptionFieldsAreSet is the rule that an option field exists only if
// some program sets it; a value nobody tunes is a constant beside the code
// that reads it. The test parses every non-test Go file of the module
// (perfbench included) and fails for each exported field of a struct whose
// name ends in Options or Config that no non-test file sets, unless the
// allowlist names it. It also fails for allowlist entries that are stale.
func TestOptionFieldsAreSet(t *testing.T) {
	s := scanOptionFields(t, ".")
	total := 0
	var unset []string
	for key, st := range s.structs {
		for f := range st.fields {
			total++
			id := key + "." + f
			_, allowed := optionFieldAllowlist[id]
			set := s.set[id] || s.setByName[f]
			switch {
			case set && allowed:
				t.Errorf("%s is set by a program now; drop it from the allowlist", id)
			case !set && !allowed:
				unset = append(unset, id)
			}
		}
	}
	for id := range optionFieldAllowlist {
		i := strings.LastIndex(id, ".")
		if st, ok := s.structs[id[:i]]; !ok || st.fields[id[i+1:]] == nil {
			t.Errorf("allowlist names %s, which no longer exists", id)
		}
	}
	sort.Strings(unset)
	for _, id := range unset {
		t.Errorf("%s is never set outside tests: make it a constant where it is read", id)
	}
	t.Logf("%d exported fields across %d *Options/*Config structs", total, len(s.structs))
}

// optionStruct holds a struct's exported fields and each field's type.
type optionStruct struct {
	fields map[string]ast.Expr
	file   *optionFile // where the field types resolve
}

type optionFile struct {
	pkg     string            // import path
	imports map[string]string // local name → import path
}

// typeKey names the "importpath.Name" a type expression refers to, through
// pointers; "" when it is not a plain named type.
func (f *optionFile) typeKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return f.typeKey(x.X)
	case *ast.Ident:
		return f.pkg + "." + x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && f.imports[id.Name] != "" {
			return f.imports[id.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

type optionScan struct {
	structs   map[string]*optionStruct // "importpath.Name" → its fields
	set       map[string]bool          // "importpath.Name.Field" seen set
	setByName map[string]bool          // field names set through a receiver of unknown type
}

// scanOptionFields parses the non-test files under root and records which
// option fields they set. A field is set when it is a key of a composite
// literal of its struct (elided element types included), when x.F is
// assigned, incremented or has its address taken (flag binding), or when a
// deeper field x.F.G is. Assignments inside a method named defaults, or
// inside an if whose condition reads the same field (the "if x.F == 0
// { x.F = d }" shape), fill defaults and do not count. The receiver's type
// is taken from its declaration in the enclosing function when that names a
// type; otherwise the field is matched by name alone.
func scanOptionFields(t *testing.T, root string) *optionScan {
	t.Helper()
	s := &optionScan{structs: map[string]*optionStruct{}, set: map[string]bool{}, setByName: map[string]bool{}}
	type parsed struct {
		ast *ast.File
		f   *optionFile
	}
	var files []parsed
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &optionFile{pkg: "hbm2ecc", imports: map[string]string{}}
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			f.pkg += "/" + dir
		}
		for _, im := range af.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			f.imports[name] = ip
		}
		files = append(files, parsed{af, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range files {
		for _, decl := range pf.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
					continue
				}
				opt := &optionStruct{fields: map[string]ast.Expr{}, file: pf.f}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							opt.fields[n.Name] = fl.Type
						}
					}
				}
				s.structs[pf.f.pkg+"."+name] = opt
			}
		}
	}
	for _, pf := range files {
		for _, decl := range pf.ast.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			if fd != nil && fd.Recv != nil && fd.Name.Name == "defaults" {
				continue
			}
			s.scanDecl(pf.f, decl, declTypes(fd))
		}
	}
	return s
}

func (s *optionScan) scanDecl(f *optionFile, decl ast.Decl, vars map[string]ast.Expr) {
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		var sets []ast.Expr
		switch x := n.(type) {
		case *ast.CompositeLit:
			if x.Type != nil {
				s.literal(f, x, nil)
			}
		case *ast.AssignStmt:
			sets = x.Lhs
		case *ast.IncDecStmt:
			sets = []ast.Expr{x.X}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				sets = []ast.Expr{x.X}
			}
		}
		for _, e := range sets {
			s.selector(f, e, vars, stack)
		}
		return true
	})
}

// literal records the keys of a composite literal of type typ (cl.Type
// when present), descending into elements whose type is elided.
func (s *optionScan) literal(f *optionFile, cl *ast.CompositeLit, typ ast.Expr) {
	if cl.Type != nil {
		typ = cl.Type
	}
	var elem ast.Expr
	switch x := typ.(type) {
	case *ast.ArrayType:
		elem = x.Elt
	case *ast.MapType:
		elem = x.Value
	}
	if st, ok := elem.(*ast.StarExpr); ok {
		elem = st.X
	}
	key := f.typeKey(typ)
	for _, el := range cl.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && elem == nil {
				s.set[key+"."+id.Name] = true
			}
			v = kv.Value
		}
		if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
			v = u.X
		}
		if inner, ok := v.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
			s.literal(f, inner, elem)
		}
	}
}

// selector records the fields that a write to the selector chain e (x.F,
// x.F.G, ...) sets, following types from x's declaration while they are
// known.
func (s *optionScan) selector(f *optionFile, e ast.Expr, vars map[string]ast.Expr, stack []ast.Node) {
	var names []string
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		names = append([]string{sel.Sel.Name}, names...)
		e = sel.X
	}
	if len(names) == 0 || defaultFill(stack, names[len(names)-1]) {
		return
	}
	key, known := "", false // type holding the next name, and whether it is known
	if id, ok := e.(*ast.Ident); ok && vars[id.Name] != nil {
		key, known = f.typeKey(vars[id.Name]), true
	}
	for _, name := range names {
		st := s.structs[key]
		switch {
		case st != nil:
			s.set[key+"."+name] = true
			key = ""
			if typ := st.fields[name]; typ != nil {
				key = st.file.typeKey(typ)
			}
		case !known:
			s.setByName[name] = true
		}
		// Past a field of a non-option type the scan does not follow
		// types, so deeper names fall back to matching by name.
		known = st != nil && key != ""
	}
}

// declTypes maps the names a function declares with a written type (its
// receiver, parameters, "var x T" and "x := T{...}") to that type.
func declTypes(fd *ast.FuncDecl) map[string]ast.Expr {
	vars := map[string]ast.Expr{}
	if fd == nil {
		return vars
	}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, n := range field.Names {
				vars[n.Name] = field.Type
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			for _, n := range x.Names {
				if x.Type != nil {
					vars[n.Name] = x.Type
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				break
			}
			for i, l := range x.Lhs {
				r := x.Rhs[i]
				if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.AND {
					r = u.X
				}
				if cl, ok := r.(*ast.CompositeLit); ok && cl.Type != nil {
					vars[l.(*ast.Ident).Name] = cl.Type
				}
			}
		}
		return true
	})
	return vars
}

// defaultFill reports whether the innermost node of stack sits inside an if
// statement whose condition reads field name: the "if x.F == 0 { x.F = d }"
// shape that fills a default rather than setting the option.
func defaultFill(stack []ast.Node, name string) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok || stack[i+1] == ifs.Cond || stack[i+1] == ifs.Init {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
