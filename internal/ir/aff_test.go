package ir

import (
	"math/rand"
	"testing"
)

// randAff draws an affine expression over three names whose terms may
// repeat a name or carry a zero coefficient.
func randAff(r *rand.Rand) AffExpr {
	names := []string{"N", "M", "K"}
	a := AffExpr{Const: r.Intn(7) - 3}
	for range r.Intn(5) {
		a.Terms = append(a.Terms, AffTerm{Name: names[r.Intn(len(names))], Coef: r.Intn(5) - 2})
	}
	return a
}

// reordered returns a with its terms permuted, a repeated name split in
// two and a zero term added: the same value, spelled differently.
func reordered(r *rand.Rand, a AffExpr) AffExpr {
	out := AffExpr{Const: a.Const, Terms: append([]AffTerm(nil), a.Terms...)}
	r.Shuffle(len(out.Terms), func(i, j int) { out.Terms[i], out.Terms[j] = out.Terms[j], out.Terms[i] })
	if len(out.Terms) > 0 && r.Intn(2) == 0 {
		t := out.Terms[0]
		out.Terms[0].Coef = t.Coef - 1
		out.Terms = append(out.Terms, AffTerm{Name: t.Name, Coef: 1})
	}
	if r.Intn(2) == 0 {
		out.Terms = append(out.Terms, AffTerm{Name: "K", Coef: 0})
	}
	return out
}

// TestConstDiffIsSub: ConstDiff is Sub(...).IsConst() and Eq is
// Sub(...).isZero() on generated pairs, including equal values spelled
// differently and pairs that differ by a constant, and neither allocates.
func TestConstDiffIsSub(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := range 5000 {
		a := randAff(r)
		var b AffExpr
		switch i % 3 {
		case 0:
			b = randAff(r)
		case 1:
			b = reordered(r, a)
		default:
			b = reordered(r, a).AddConst(r.Intn(5) - 2)
		}
		wantC, wantOK := a.Sub(b).IsConst()
		if c, ok := a.ConstDiff(b); c != wantC || ok != wantOK {
			t.Fatalf("(%v).ConstDiff(%v) = %d, %v; Sub gives %d, %v", a, b, c, ok, wantC, wantOK)
		}
		if got, want := a.Eq(b), a.Sub(b).isZero(); got != want {
			t.Fatalf("(%v).Eq(%v) = %v; Sub gives %v", a, b, got, want)
		}
	}
	a := AffExpr{Const: 3, Terms: []AffTerm{{"N", 1}, {"M", -2}, {"N", 1}}}
	b := AffExpr{Const: 1, Terms: []AffTerm{{"M", -2}, {"N", 2}, {"K", 0}}}
	if n := testing.AllocsPerRun(100, func() { a.ConstDiff(b) }); n != 0 {
		t.Errorf("ConstDiff allocates %v objects", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Eq(b) }); n != 0 {
		t.Errorf("Eq allocates %v objects", n)
	}
}
