package hpf_test

import (
	"fmt"
	"testing"

	"dhpf/internal/hpf"
	"dhpf/internal/iset"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

// bindSource binds src's directives under its own parameters.
func bindSource(t *testing.T, src string) *hpf.Binding {
	t.Helper()
	b, err := hpf.Bind(parser.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireUnownedIsTheRest checks l.Unowned against its definition: the
// index space minus the union of every rank's box, as disjoint boxes.
func requireUnownedIsTheRest(t *testing.T, name string, l *hpf.Layout) {
	t.Helper()
	owned, got := iset.EmptySet(l.Rank()), iset.EmptySet(l.Rank())
	for r := 0; r < l.Grid.Size(); r++ {
		owned = owned.UnionBox(l.LocalBox(r))
	}
	var card int64
	for _, b := range l.Unowned() {
		got = got.UnionBox(b)
		card += b.Card()
	}
	want := iset.FromBox(l.Space()).Subtract(owned)
	if !got.Eq(want) || card != want.Card() {
		t.Fatalf("%s: Unowned = %v, want the disjoint boxes of %v", name, l.Unowned(), want)
	}
}

// TestUnowned: a layout's Unowned is what no rank's LocalBox covers —
// the tail a BLOCK(n) with n·P short of the extent leaves, or the one an
// alignment offset past the template leaves — and nothing for a default
// BLOCK layout, the NAS SP, BT and LU layouts among them.
func TestUnowned(t *testing.T) {
	for _, c := range []struct{ name, dirs, want string }{
		{"BLOCK(2) on 16 over 4", "!hpf$ distribute a(BLOCK(2)) onto procs", "[[8:15]]"},
		{"ALIGN past the template", "!hpf$ template tmpl(N)\n!hpf$ align a with tmpl(d0+3)\n!hpf$ distribute tmpl(BLOCK) onto procs", "[[13:15]]"},
		{"default BLOCK", "!hpf$ distribute a(BLOCK) onto procs", "[]"},
	} {
		src := fmt.Sprintf("program t\nparam N = 16\n!hpf$ processors procs(4)\n%s\nsubroutine main()\n  real a(0:N-1)\n  a(0) = 1.0\nend\n", c.dirs)
		l := bindSource(t, src).LayoutOf("a")
		if got := fmt.Sprint(l.Unowned()); got != c.want {
			t.Errorf("%s: Unowned = %s, want %s", c.name, got, c.want)
		}
		requireUnownedIsTheRest(t, c.name, l)
	}

	// Every block size, alignment offset and grid extent of a small
	// range, on a 2-D grid with a replicated dimension in between.
	for _, bs := range []int{1, 2, 3, 5} {
		for off := -3; off <= 3; off++ {
			for _, np := range []int{1, 2, 3, 4} {
				src := fmt.Sprintf(`program t
param N = 7
!hpf$ processors procs(%d, 2)
!hpf$ template tmpl(N, N, N)
!hpf$ align a with tmpl(d0%+d, d1, d2)
!hpf$ distribute tmpl(BLOCK(%d), *, BLOCK) onto procs
subroutine main()
  real a(1:N, 0:3, 0:N-1)
  a(1, 0, 0) = 1.0
end
`, np, off, bs)
				requireUnownedIsTheRest(t, fmt.Sprintf("BLOCK(%d) offset %d over %d", bs, off, np), bindSource(t, src).LayoutOf("a"))
			}
		}
	}

	for name, src := range map[string]string{
		"sp16": nas.SPSource(16, 1, 2, 2), "bt12": nas.BTSource(12, 1, 2, 2), "lu16": nas.LUSource(16, 1, 2, 2),
	} {
		for array, l := range bindSource(t, src).Layouts {
			if len(l.Unowned()) != 0 {
				t.Errorf("%s: %s leaves %v unowned", name, array, l.Unowned())
			}
			requireUnownedIsTheRest(t, name+" "+array, l)
		}
	}
}
