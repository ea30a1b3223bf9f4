package targets

import "testing"

func TestCanonical(t *testing.T) {
	if got := Canonical(" Example.COM. "); got != "example.com" {
		t.Errorf("got %q", got)
	}
}

func TestPrependWWW(t *testing.T) {
	if got := PrependWWW("example.com"); got != "www.example.com" {
		t.Errorf("got %q", got)
	}
	if got := PrependWWW("www.example.com"); got != "www.example.com" {
		t.Errorf("got %q (must not double-prepend)", got)
	}
}
