package dhpf_test

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dhpf"
)

// optionFields lists every leaf field of a struct type, recursing into
// nested structs, as "Path type" lines.
func optionFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, optionFields(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name+" "+f.Type.String())
	}
	return out
}

// TestOptionSurface pins every independently settable compile option —
// each field of dhpf.Options and each JSON field of RequestOptions —
// against testdata/option_surface.golden (cmd/dhpfc checks its flags
// against the same file), so a new knob is a golden diff a reviewer
// sees, not something discovered later.
func TestOptionSurface(t *testing.T) {
	golden, err := os.ReadFile("testdata/option_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	fields := optionFields(reflect.TypeOf(dhpf.Options{}), "")
	sort.Strings(fields)
	var tags []string
	wire := reflect.TypeOf(dhpf.RequestOptions{})
	for i := 0; i < wire.NumField(); i++ {
		tag, _, _ := strings.Cut(wire.Field(i).Tag.Get("json"), ",")
		tags = append(tags, tag+" "+wire.Field(i).Type.String())
	}
	sort.Strings(tags)
	for _, section := range []string{
		"[dhpf.Options]\n" + strings.Join(fields, "\n") + "\n\n",
		"[dhpf.RequestOptions json]\n" + strings.Join(tags, "\n") + "\n\n",
	} {
		if !strings.Contains(string(golden), section) {
			t.Errorf("option surface changed; testdata/option_surface.golden does not contain:\n%s", section)
		}
	}
}
