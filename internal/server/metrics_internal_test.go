package server

import "testing"

// TestPromLabelEscaping pins the exposition-format escaping contract:
// exactly backslash, double quote and newline are escaped; tabs and
// non-ASCII pass through raw (Go's %q, which this replaced, mangles
// both into escapes the format does not define).
func TestPromLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `"plain"`},
		{`a"b`, `"a\"b"`},
		{`a\b`, `"a\\b"`},
		{"a\nb", `"a\nb"`},
		{"a\tb", "\"a\tb\""},     // raw tab, NOT \t
		{"naïve-π", `"naïve-π"`}, // UTF-8 raw, NOT \u escapes
		{`\"`, `"\\\""`},         // compound: each char escaped once
		{"", `""`},
	}
	for _, tc := range cases {
		if got := promLabel(tc.in); got != tc.want {
			t.Errorf("promLabel(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}
