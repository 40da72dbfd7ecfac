package yamlite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Marshal renders a Go value (maps, slices, scalars) back to yamlite
// text with deterministic (sorted) key order: the inverse of Parse that
// the round-trip tests and FuzzParse check the parser against.
func Marshal(v any) string {
	if v == nil {
		// A nil root renders as the empty document: the parser has no
		// root-scalar form, and Parse("") returns nil, closing the loop.
		return ""
	}
	var b strings.Builder
	marshalValue(&b, v, 0, false)
	return b.String()
}

func marshalValue(b *strings.Builder, v any, indent int, inline bool) {
	switch t := v.(type) {
	case map[string]any:
		if len(t) == 0 {
			b.WriteString("{}\n")
			return
		}
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if !(inline && i == 0) {
				b.WriteString(strings.Repeat(" ", indent))
			}
			b.WriteString(quoteIfNeeded(k))
			b.WriteString(":")
			child := t[k]
			if isComposite(child) {
				b.WriteString("\n")
				marshalValue(b, child, indent+2, false)
			} else {
				b.WriteString(" ")
				b.WriteString(scalarString(child))
				b.WriteString("\n")
			}
		}
	case []any:
		if len(t) == 0 {
			b.WriteString("[]\n")
			return
		}
		for _, item := range t {
			b.WriteString(strings.Repeat(" ", indent))
			if _, isSeq := item.([]any); isSeq && isComposite(item) {
				// A sequence nested directly in a sequence cannot be
				// started on the "- " line; put it in its own block.
				b.WriteString("-\n")
				marshalValue(b, item, indent+2, false)
				continue
			}
			b.WriteString("- ")
			if isComposite(item) {
				marshalValue(b, item, indent+2, true)
			} else {
				b.WriteString(scalarString(item))
				b.WriteString("\n")
			}
		}
	default:
		b.WriteString(strings.Repeat(" ", indent))
		b.WriteString(scalarString(v))
		b.WriteString("\n")
	}
}

func isComposite(v any) bool {
	switch t := v.(type) {
	case map[string]any:
		return len(t) > 0
	case []any:
		return len(t) > 0
	default:
		return false
	}
}

func scalarString(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(t)
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		if t == 0 {
			// Negative zero would render "-0", which re-parses down the
			// integer path as +0 — normalise so Marshal∘Parse is a fixpoint.
			return "0"
		}
		return strconv.FormatFloat(t, 'g', -1, 64)
	case string:
		return quoteIfNeeded(t)
	case map[string]any:
		return "{}"
	case []any:
		return "[]"
	default:
		return fmt.Sprintf("%v", t)
	}
}

// quoteIfNeeded quotes strings that would otherwise be resolved as a
// different scalar type or break the grammar.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	if _, isStr := resolveScalar(s).(string); !isStr {
		return strconv.Quote(s)
	}
	if strings.ContainsAny(s, ":#{}[]'\",\n\t") || s != strings.TrimSpace(s) || strings.HasPrefix(s, "- ") || s == "-" {
		return strconv.Quote(s)
	}
	return s
}
