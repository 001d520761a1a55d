package symbolic

import (
	"fmt"
	"strings"
	"testing"

	"github.com/expresso-verify/expresso/internal/bdd"
	"github.com/expresso-verify/expresso/internal/config"
	"github.com/expresso-verify/expresso/internal/route"
)

// chainedPrefixMatch is the reference construction of a prefix-match
// predicate: the spec's high bits, the length and the zero suffix
// conjoined one literal at a time.
func chainedPrefixMatch(s *Space, m config.PrefixMatch) bdd.Node {
	high := bdd.True
	for b := 0; b < int(m.Prefix.Len); b++ {
		if m.Prefix.Addr&(1<<(31-b)) != 0 {
			high = s.W.And(high, s.M.Var(s.addrVars[b]))
		} else {
			high = s.W.And(high, s.M.NVar(s.addrVars[b]))
		}
	}
	terms := make([]bdd.Node, 0, int(m.LE)-int(m.GE)+1)
	for l := int(m.GE); l <= int(m.LE); l++ {
		t := s.W.And(high, s.lenCubes[l])
		for b := l; b < AddrBits; b++ {
			t = s.W.And(t, s.M.NVar(s.addrVars[b]))
		}
		terms = append(terms, t)
	}
	return s.W.Or(terms...)
}

// chainedValid is the reference construction of the canonical-prefix
// predicate.
func chainedValid(s *Space) bdd.Node {
	terms := make([]bdd.Node, 0, 33)
	for l := 0; l <= 32; l++ {
		t := s.lenCubes[l]
		for b := l; b < AddrBits; b++ {
			t = s.W.And(t, s.M.NVar(s.addrVars[b]))
		}
		terms = append(terms, t)
	}
	return s.W.Or(terms...)
}

func pfx(addr string, l uint8) route.Prefix {
	p := route.MustParsePrefix(addr + "/32")
	p.Len = l
	return p
}

// prefixCubeCases covers the corners of the cube construction: the
// empty and full prefixes, a single length, a range reaching /32, a spec
// address with bits set past its length, and specs built in code with GE
// below the prefix length (which the parser rejects), whose address bits
// between GE and the length are zero, set, or both.
var prefixCubeCases = []struct {
	name string
	m    config.PrefixMatch
}{
	{"slash0", config.PrefixMatch{Prefix: pfx("0.0.0.0", 0), GE: 0, LE: 0}},
	{"slash0-le32", config.PrefixMatch{Prefix: pfx("0.0.0.0", 0), GE: 0, LE: 32}},
	{"slash32", config.PrefixMatch{Prefix: pfx("10.1.2.3", 32), GE: 32, LE: 32}},
	{"exact", config.PrefixMatch{Prefix: pfx("10.1.0.0", 16), GE: 16, LE: 16}},
	{"le32", config.PrefixMatch{Prefix: pfx("172.16.0.0", 12), GE: 12, LE: 32}},
	{"bits-past-len", config.PrefixMatch{Prefix: pfx("10.1.255.7", 16), GE: 16, LE: 24}},
	{"ge-below-len-zero-bits", config.PrefixMatch{Prefix: pfx("10.0.0.0", 16), GE: 8, LE: 16}},
	{"ge-below-len-set-bits", config.PrefixMatch{Prefix: pfx("10.1.0.0", 16), GE: 8, LE: 15}},
	{"ge-below-len-mixed", config.PrefixMatch{Prefix: pfx("10.16.0.0", 16), GE: 8, LE: 20}},
}

// checkPrefixCubes asserts that every cube-built predicate is the very
// node the chained-And reference builds, in the space's current order.
func checkPrefixCubes(t *testing.T, s *Space) {
	t.Helper()
	for _, c := range prefixCubeCases {
		if got, want := s.PrefixMatchBDD(c.m), chainedPrefixMatch(s, c.m); got != want {
			t.Errorf("%s: PrefixMatchBDD(%v ge %d le %d) = node %d, chained And builds %d",
				c.name, c.m.Prefix, c.m.GE, c.m.LE, got, want)
		}
		// The same spec as a single exact prefix.
		p := c.m.Prefix
		p.Addr &= route.MaskOf(p.Len)
		exact := config.PrefixMatch{Prefix: p, GE: p.Len, LE: p.Len}
		if got, want := s.PrefixBDD(p), chainedPrefixMatch(s, exact); got != want {
			t.Errorf("%s: PrefixBDD(%v) = node %d, chained And builds %d", c.name, p, got, want)
		}
	}
	if got, want := s.computeValid(), chainedValid(s); got != want || got != s.Valid() {
		t.Errorf("computeValid = node %d, chained And builds %d, cached Valid %d", got, want, s.Valid())
	}
	// A non-canonical prefix names no prefix.
	if n := s.PrefixBDD(pfx("10.1.2.3", 16)); n != bdd.False {
		t.Errorf("PrefixBDD(non-canonical 10.1.2.3/16) = node %d, want False", n)
	}
}

// TestPrefixCubeMatchesChainedAnd is the differential test of the cube
// construction against the chained-And reference: identical node handles
// on a fresh space and again after sifting moved the variable order.
func TestPrefixCubeMatchesChainedAnd(t *testing.T) {
	s := NewSpace(4)
	checkPrefixCubes(t, s)
	if t.Failed() {
		return
	}

	// A root whose best order pairs address bits with advertiser
	// variables, far apart in the initial order, so sifting moves levels.
	root := bdd.True
	for i := 0; i < s.NumNeighbors; i++ {
		eq := s.W.Biimp(s.M.Var(s.addrVars[31-i]), s.M.Var(s.NbrVar(i)))
		root = s.W.And(root, eq)
	}
	root = s.W.Or(root, s.PrefixMatchBDD(prefixCubeCases[4].m))
	before := fmt.Sprint(s.M.Order())
	s.M.Pin(root)
	s.M.Reorder(root)
	if fmt.Sprint(s.M.Order()) == before {
		t.Fatal("forced sift left the variable order unchanged; the reorder case tests nothing")
	}
	checkPrefixCubes(t, s)
}

// TestPrefixListCompileNodeBudget guards the compile cost of a
// region-sized import policy: one node matching 600 exact /24 prefixes
// must hash-cons fewer than 100 BDD nodes per line. Chained-And
// construction creates about 200 per line and fails.
func TestPrefixListCompileNodeBudget(t *testing.T) {
	const lines = 600
	var b strings.Builder
	b.WriteString("router R\nbgp as 100\nroute-policy im permit node 10\n")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, " if-match prefix 20.%d.%d.0/24\n", i/250, i%250)
	}
	b.WriteString(" set-local-preference 200\nbgp peer P AS 200 import im\n")
	ctx, devices := newCtx(t, b.String())
	_, before := ctx.Space.M.UniqueStats()
	CompilePolicy(ctx, devices[0].Policies["im"])
	_, after := ctx.Space.M.UniqueStats()
	perLine := float64(after-before) / lines
	t.Logf("compiling %d exact-/24 lines created %d nodes (%.1f per line)", lines, after-before, perLine)
	if perLine >= 100 {
		t.Errorf("compile created %.1f nodes per prefix-list line, want < 100", perLine)
	}
}
