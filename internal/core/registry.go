package core

import (
	"fmt"
	"sort"
)

// schemeCtors maps every Table-2 row label (plus the rejected
// organizations evaluated in §7) to its constructor. The names are the
// Scheme.Name() strings, so a scheme can round-trip through its label:
// command-line scheme lists and campaign rows name schemes this way.
var schemeCtors = map[string]func() Scheme{
	"NI:SEC-DED":      func() Scheme { return NewSECDED(false, false) },
	"I:SEC-DED":       func() Scheme { return NewSECDED(true, false) },
	"NI:SEC-DED+CSC":  func() Scheme { return NewSECDED(false, true) },
	"DuetECC":         func() Scheme { return NewDuetECC() },
	"NI:SEC-2bEC":     func() Scheme { return NewSEC2bEC(false, false) },
	"I:SEC-2bEC":      func() Scheme { return NewSEC2bEC(true, false) },
	"NI:SEC-2bEC+CSC": func() Scheme { return NewSEC2bEC(false, true) },
	"TrioECC":         func() Scheme { return NewTrioECC() },
	"I:SSC":           func() Scheme { return NewSSC(false) },
	"I:SSC+CSC":       func() Scheme { return NewSSC(true) },
	"SSC-DSD+":        func() Scheme { return NewSSCDSDPlus() },
	"DSC":             func() Scheme { return NewDSC() },
	"SSC-TSD":         func() Scheme { return NewSSCTSD() },
}

// SchemeByName constructs the scheme whose Name() is name. The
// constructed instance is fresh (schemes are safe for concurrent use
// after construction, so callers may cache it).
func SchemeByName(name string) (Scheme, error) {
	ctor, ok := schemeCtors[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", name)
	}
	return ctor(), nil
}

// SchemeNames returns every name SchemeByName accepts, sorted.
func SchemeNames() []string {
	names := make([]string, 0, len(schemeCtors))
	for n := range schemeCtors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table2Schemes returns the paper's nine evaluated organizations in
// Table-2 row order — the canonical evaluation corpus shared by
// ecceval, cmd/bench and the golden tests.
func Table2Schemes() []Scheme {
	return []Scheme{
		NewSECDED(false, false),
		NewSECDED(true, false),
		NewDuetECC(),
		NewSEC2bEC(false, false),
		NewSEC2bEC(true, false),
		NewTrioECC(),
		NewSSC(false),
		NewSSC(true),
		NewSSCDSDPlus(),
	}
}

// Table2Names returns the Table-2 scheme labels in row order.
func Table2Names() []string {
	schemes := Table2Schemes()
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name()
	}
	return names
}
