// Package yamlite implements a parser for the subset of YAML used by
// Caladrius configuration files.
//
// The original Caladrius service is configured through YAML files that
// select model implementations and carry their options. This package
// supports the constructs those files use — nested mappings, block
// sequences, inline comments, quoted and plain scalars, and typed scalar
// resolution (bool, int, float, null, string) — without any dependency
// outside the standard library.
//
// It is intentionally not a full YAML 1.2 implementation: anchors,
// aliases, tags, multi-document streams, flow collections spanning lines
// and block scalars are not supported. Unsupported constructs produce a
// descriptive *ParseError rather than silent misbehaviour.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a failure to parse a document, with the 1-based
// line number at which the problem was detected.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("yamlite: line %d: %s", e.Line, e.Msg)
}

func errAt(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse decodes a document into Go values: mappings become
// map[string]any, sequences become []any and scalars are resolved to
// bool, int64, float64, nil or string.
func Parse(src string) (any, error) {
	lines, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, nil
	}
	p := &parser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, errAt(p.lines[p.pos].num, "unexpected content at indent %d", p.lines[p.pos].indent)
	}
	return v, nil
}

// ParseMap decodes a document whose root must be a mapping.
func ParseMap(src string) (map[string]any, error) {
	v, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return map[string]any{}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("yamlite: document root is %T, want mapping", v)
	}
	return m, nil
}

type line struct {
	num    int    // 1-based source line number
	indent int    // count of leading spaces
	text   string // content with indentation and comments stripped
}

// tokenize splits the source into significant lines, stripping blank
// lines and comments and rejecting tabs in indentation.
func tokenize(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		trimmedRight := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(trimmedRight) && trimmedRight[indent] == ' ' {
			indent++
		}
		rest := trimmedRight[indent:]
		if strings.HasPrefix(rest, "\t") {
			return nil, errAt(num, "tab character in indentation")
		}
		rest = stripComment(rest)
		rest = strings.TrimRight(rest, " ")
		if rest == "" {
			continue
		}
		if rest == "---" && indent == 0 {
			if len(out) > 0 {
				return nil, errAt(num, "multi-document streams are not supported")
			}
			continue
		}
		out = append(out, line{num: num, indent: indent, text: rest})
	}
	return out, nil
}

// stripComment removes a trailing " # ..." comment that is not inside a
// quoted string. A '#' starting the line is also a comment.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inDouble:
			i++ // skip the escaped character
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == '#' && !inSingle && !inDouble:
			if i == 0 || s[i-1] == ' ' {
				return strings.TrimRight(s[:i], " ")
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) peek() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses a mapping or sequence whose entries sit at exactly
// the given indent.
func (p *parser) parseBlock(indent int) (any, error) {
	ln, ok := p.peek()
	if !ok {
		return nil, nil
	}
	if ln.indent != indent {
		return nil, errAt(ln.num, "expected indent %d, got %d", indent, ln.indent)
	}
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *parser) parseSequence(indent int) (any, error) {
	var seq []any
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			if ok && ln.indent > indent {
				return nil, errAt(ln.num, "unexpected deeper indent %d inside sequence at %d", ln.indent, indent)
			}
			return seq, nil
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			return nil, errAt(ln.num, "expected sequence item, got %q", ln.text)
		}
		p.pos++
		rest := strings.TrimPrefix(ln.text, "-")
		rest = strings.TrimPrefix(rest, " ")
		if rest == "" {
			// Nested block belongs to this item.
			child, childOK := p.peek()
			if !childOK || child.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, err := p.parseBlock(child.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		// "- key: value" starts an inline mapping item whose further
		// keys are indented to the position after "- ".
		if k, v, isMap := splitKeyValue(rest); isMap {
			itemIndent := indent + 2
			m := map[string]any{}
			if err := p.addMappingEntry(m, k, v, ln.num, itemIndent); err != nil {
				return nil, err
			}
			for {
				next, nok := p.peek()
				if !nok || next.indent != itemIndent || strings.HasPrefix(next.text, "- ") {
					break
				}
				nk, nv, nIsMap := splitKeyValue(next.text)
				if !nIsMap {
					return nil, errAt(next.num, "expected key: value inside sequence item, got %q", next.text)
				}
				p.pos++
				if err := p.addMappingEntry(m, nk, nv, next.num, itemIndent); err != nil {
					return nil, err
				}
			}
			seq = append(seq, m)
			continue
		}
		v, err := resolveValue(rest, ln.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			if ok && ln.indent > indent {
				return nil, errAt(ln.num, "unexpected deeper indent %d inside mapping at %d", ln.indent, indent)
			}
			return m, nil
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, errAt(ln.num, "sequence item inside mapping block")
		}
		k, v, isMap := splitKeyValue(ln.text)
		if !isMap {
			return nil, errAt(ln.num, "expected key: value, got %q", ln.text)
		}
		if _, dup := m[k]; dup {
			return nil, errAt(ln.num, "duplicate key %q", k)
		}
		p.pos++
		if err := p.addMappingEntry(m, k, v, ln.num, indent); err != nil {
			return nil, err
		}
	}
}

// addMappingEntry stores key k in m. If v is empty the value is the
// following deeper block (or nil); otherwise it is a scalar or inline
// flow collection.
func (p *parser) addMappingEntry(m map[string]any, k, v string, lineNum, indent int) error {
	if v == "" {
		child, ok := p.peek()
		if !ok || child.indent <= indent {
			m[k] = nil
			return nil
		}
		val, err := p.parseBlock(child.indent)
		if err != nil {
			return err
		}
		m[k] = val
		return nil
	}
	val, err := resolveValue(v, lineNum)
	if err != nil {
		return err
	}
	m[k] = val
	return nil
}

// splitKeyValue splits "key: value" (or "key:") at the first colon that
// is outside quotes and followed by a space or end of line.
func splitKeyValue(s string) (key, value string, ok bool) {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inDouble:
			i++ // skip the escaped character
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == ':' && !inSingle && !inDouble:
			if i+1 == len(s) || s[i+1] == ' ' {
				key = strings.TrimSpace(s[:i])
				value = strings.TrimSpace(s[i+1:])
				key = unquote(key)
				if key == "" {
					return "", "", false
				}
				return key, value, true
			}
		}
	}
	return "", "", false
}

// resolveValue handles scalars plus single-line flow collections
// ([a, b] and {k: v}).
func resolveValue(s string, lineNum int) (any, error) {
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, errAt(lineNum, "unterminated flow sequence %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return []any{}, nil
		}
		parts, err := splitFlow(inner, lineNum)
		if err != nil {
			return nil, err
		}
		out := make([]any, len(parts))
		for i, part := range parts {
			v, err := resolveValue(part, lineNum)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, errAt(lineNum, "unterminated flow mapping %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		m := map[string]any{}
		if inner == "" {
			return m, nil
		}
		parts, err := splitFlow(inner, lineNum)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			k, v, ok := splitKeyValue(part)
			if !ok {
				return nil, errAt(lineNum, "bad flow mapping entry %q", part)
			}
			val, err := resolveValue(v, lineNum)
			if err != nil {
				return nil, err
			}
			m[k] = val
		}
		return m, nil
	default:
		return resolveScalar(s), nil
	}
}

// splitFlow splits a flow-collection body on top-level commas.
func splitFlow(s string, lineNum int) ([]string, error) {
	var parts []string
	depth := 0
	inSingle, inDouble := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\' && inDouble:
			i++ // skip the escaped character
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, errAt(lineNum, "unbalanced brackets in %q", s)
			}
		case c == ',' && depth == 0:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inSingle || inDouble {
		return nil, errAt(lineNum, "unbalanced flow collection %q", s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts, nil
}

// resolveScalar maps a plain or quoted scalar to its typed Go value
// following YAML 1.2 core-schema resolution.
func resolveScalar(s string) any {
	if len(s) >= 2 {
		if (s[0] == '\'' && s[len(s)-1] == '\'') || (s[0] == '"' && s[len(s)-1] == '"') {
			return unquote(s)
		}
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if i, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return i
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
		return s[1 : len(s)-1]
	}
	return s
}
