package main

import (
	"flag"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// brokenContinuation matches a backslash followed by blanks (and perhaps a
// comment): in sh that escapes a space instead of continuing the line, so
// the rest of the command is silently dropped.
var brokenContinuation = regexp.MustCompile(`\\[ \t]+(#.*)?$`)

// TestDocumentedCommands checks every fenced block of the top-level docs:
// no line pretends to continue with a trailing comment, and every flag of a
// spinscan command (its line and its continuation lines) is defined.
func TestDocumentedCommands(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		inBlock := false
		var cmd []string // the logical command so far, one entry per line
		start := 0
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inBlock, cmd = !inBlock, nil
				continue
			}
			if !inBlock {
				continue
			}
			if brokenContinuation.MatchString(line) {
				t.Errorf("%s:%d: line continued with a trailing blank or comment: %s", doc, i+1, line)
			}
			if cmd == nil {
				start = i + 1
			}
			cmd = append(cmd, strings.TrimSuffix(line, `\`))
			if strings.HasSuffix(line, `\`) {
				continue
			}
			for _, name := range spinscanFlags(strings.Join(cmd, " ")) {
				if flag.Lookup(name) == nil {
					t.Errorf("%s:%d: spinscan has no flag -%s", doc, start, name)
				}
			}
			cmd = nil
		}
	}
}

// spinscanFlags returns the flag names of the spinscan invocations in one
// logical shell line: a word naming the spinscan binary (or package) that
// starts a command, bare or after `go run`, up to the next shell operator
// or comment.
func spinscanFlags(line string) []string {
	var names []string
	var words []string // the current command's words
	inSpinscan := false
	for _, w := range shellWords(line) {
		switch {
		case strings.HasPrefix(w, "#"):
			return names
		case w == "|" || w == "||" || w == "&&" || w == ";" || w == "&":
			words, inSpinscan = nil, false
			continue
		case inSpinscan && strings.HasPrefix(w, "-") && len(w) > 1:
			name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
			names = append(names, name)
		case !inSpinscan && path.Base(w) == "spinscan":
			inSpinscan = len(words) == 0 || len(words) >= 2 && words[0] == "go" && words[1] == "run"
		}
		words = append(words, w)
	}
	return names
}

// shellWords splits a shell line on blanks, keeping quoted strings whole
// (quotes removed) and splitting off the operators spinscanFlags stops at.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote byte
	flush := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '"' || c == '\'':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			flush()
		case c == '|' || c == '&' || c == ';':
			flush()
			op := string(c)
			if i+1 < len(line) && line[i+1] == c && c != ';' {
				op += string(c)
				i++
			}
			words = append(words, op)
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return words
}
