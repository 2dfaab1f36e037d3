package cspio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"csdb/internal/csp"
)

// FuzzParseInstance drives the text-format parser with arbitrary bytes. The
// properties: Parse never panics; and whenever it accepts the input, the
// instance survives a Format/Parse round trip — Format's output parses, and
// reformatting that parse reproduces it byte for byte (Format is
// deterministic, so format∘parse is idempotent).
func FuzzParseInstance(f *testing.F) {
	f.Add("vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\n")
	f.Add("vars 4\ndom 3\nnames x y z w\ncon 0 1 : 0 1 | 1 0\ndom_of 2 : 0 2\n")
	f.Add("# comment\nvars 1\ndom 1\n")
	f.Add("vars 0\ndom 0\n")
	f.Add("vars 2\ndom 2\ncon 0 1 :\n")
	f.Add("con 0 1 : 0 1\nvars 2\ndom 2\n")
	f.Add("vars -1\ndom 2\n")
	f.Add("vars 2\ndom 2\ncon 0 0 : 0 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		p, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		var out1 bytes.Buffer
		if err := Format(&out1, p); err != nil {
			t.Fatalf("Format failed on accepted instance: %v\ninput: %q", err, input)
		}
		q, err := Parse(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\nformatted: %q", err, out1.String())
		}
		if q.Vars != p.Vars || q.Dom != p.Dom || len(q.Constraints) != len(p.Constraints) {
			t.Fatalf("round trip changed shape: vars %d->%d dom %d->%d cons %d->%d\ninput: %q",
				p.Vars, q.Vars, p.Dom, q.Dom, len(p.Constraints), len(q.Constraints), input)
		}
		var out2 bytes.Buffer
		if err := Format(&out2, q); err != nil {
			t.Fatalf("reformat failed: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("format not idempotent:\nfirst:  %q\nsecond: %q", out1.String(), out2.String())
		}
	})
}

// FuzzParseAgrees is the parser's differential gate: ParseBytes and the
// bufio.Scanner parser it replaced (referenceParse) must accept and reject
// the same inputs, and on an accepted input build the same instance — the
// same Format output, the same Names (nil and empty differ: "names" with no
// arguments is an empty list), and Canonical bytes equal to the reference
// encoder's. The one divergence allowed is ParseBytes rejecting a dom_of
// value outside [0,dom), and then the line its error names must hold one.
func FuzzParseAgrees(f *testing.F) {
	f.Add([]byte("vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\n"))
	f.Add([]byte("vars 4\ndom 3\nnames x y z w\ncon 0 1 : 0 1 | 1 0\ndom_of 2 : 0 2\n"))
	f.Add([]byte("# comment\nvars 1\ndom 1 # trailing\n"))
	f.Add([]byte("vars 0\ndom 1\nnames\n"))
	f.Add([]byte("vars 2\ndom 2\ncon 0 1 :\ncon 1 0 : | 1 0 ||\n"))
	f.Add([]byte("con 1 0 : 1 0\nvars 2\ndom 2\ndom_of 1 : 1 1 0\ndom_of 1 : 0\n"))
	f.Add([]byte("vars +2\r\ndom 02\r\ncon\t0 -0 : +1 0\v|\f0 1\r\n"))
	f.Add([]byte("vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\ncon 0 1 : 0\xc21 | 1 0\n"))
	f.Add([]byte("vars 2\ndom 2\ndom_of 0 : 0|1\ncon 0 1 : 0 1 : 1 0\n"))
	f.Add([]byte("vars 2\ndom 2\ndom_of 0 : 5\ncon 0 1 : 0 1 | 1 0\n"))
	f.Add([]byte("vars 9223372036854775808\ndom -9223372036854775808\n"))
	f.Add([]byte("vars 3\ndom 2\ndom_of 0 1 : 0\ndom_of 5 : 0\nnames a b\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		want, werr := referenceParse(bytes.NewReader(input))
		got, gerr := ParseBytes(input)
		switch {
		case werr != nil && gerr != nil:
			return
		case werr != nil:
			t.Fatalf("ParseBytes accepted what the reference rejects (%v)\ninput: %q", werr, input)
		case gerr != nil:
			if !domOfOutOfRange(input, want, gerr) {
				t.Fatalf("ParseBytes rejected what the reference accepts: %v\ninput: %q", gerr, input)
			}
			return
		}
		if g, w := Canonical(got), referenceCanonical(want); !bytes.Equal(g, w) {
			t.Fatalf("Canonical differs:\ngot  %q\nwant %q\ninput: %q", g, w, input)
		}
		if !reflect.DeepEqual(got.Names, want.Names) {
			t.Fatalf("Names differ: got %#v want %#v\ninput: %q", got.Names, want.Names, input)
		}
		var g, w bytes.Buffer
		if err := Format(&g, got); err != nil {
			t.Fatal(err)
		}
		if err := Format(&w, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("Format differs:\ngot  %q\nwant %q\ninput: %q", g.String(), w.String(), input)
		}
	})
}

// domOfOutOfRange reports whether err is ParseBytes' dom_of range rejection
// and the line it names, read by the reference parser under want's vars and
// dom, really restricts a variable to the value it names, outside [0,dom).
func domOfOutOfRange(input []byte, want *csp.Instance, err error) bool {
	var line, val, dom int
	if _, serr := fmt.Sscanf(err.Error(), "cspio: line %d: dom_of value %d outside [0,%d)", &line, &val, &dom); serr != nil {
		return false
	}
	lines := bytes.Split(input, []byte("\n"))
	if dom != want.Dom || val >= 0 && val < dom || line < 1 || line > len(lines) {
		return false
	}
	one, perr := referenceParse(strings.NewReader(fmt.Sprintf("vars %d\ndom %d\n%s\n", want.Vars, want.Dom, lines[line-1])))
	if perr != nil {
		return false
	}
	for _, d := range one.Domains {
		if slices.Contains(d, val) {
			return true
		}
	}
	return false
}

// FuzzCacheKey is the differential gate of Digest, the key of cspd's result
// cache, against Canonical: on an accepted body, a random re-presentation
// of the instance gets its digest, and a re-presentation of a random
// mutation of it gets its digest exactly when Canonical cannot tell the two
// apart.
func FuzzCacheKey(f *testing.F) {
	f.Add("vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\n", int64(1))
	f.Add("vars 4\ndom 3\nnames x y z w\ncon 0 1 : 0 1 | 1 0\ndom_of 2 : 0 2\n", int64(2))
	f.Add("vars 3\ndom 3\ncon 0 0 1 : 0 1 2 | 1 0 2\ncon 2 : \ndom_of 1 : 2 1 0\n", int64(3))
	f.Add("vars 2\ndom 2\ncon 0 1 : 0 1\ncon 1 0 : 1 0\n", int64(4))
	f.Add("vars 1\ndom 1048576\ncon 0 : 5 | 1048575\n", int64(5))
	f.Fuzz(func(t *testing.T, input string, seed int64) {
		p, err := ParseBytes([]byte(input))
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		want := Digest(p, testDigestKey)
		if q := represent(rng, p); Digest(q, testDigestKey) != want {
			t.Fatalf("re-presentation changed the digest\n%q\n%q", Canonical(p), Canonical(q))
		}
		q := represent(rng, mutate(rng, p))
		same := bytes.Equal(Canonical(p), Canonical(q))
		if got := Digest(q, testDigestKey) == want; got != same {
			t.Fatalf("digests equal %v, Canonical equal %v\n%q\n%q", got, same, Canonical(p), Canonical(q))
		}
	})
}
