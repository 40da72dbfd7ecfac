package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// Query parses and executes a Gremlin-style traversal string against
// the graph — the textual interface TinkerPop exposes and Caladrius'
// original graph component is driven through. Example:
//
//	g.V().hasLabel('instance').has('component','splitter').out('stream').count()
//
// Supported steps:
//
//	V(id...)           start at all vertices or the given ids
//	hasLabel(l...)     keep vertices with one of the labels
//	has(key, value)    keep vertices whose property equals value
//	out(label...)      follow outgoing edges
//	in(label...)       follow incoming edges
//	dedup()            collapse duplicate positions
//	limit(n)           keep the first n traversers
//
// Terminal steps (default ids()):
//
//	ids()              vertex ids ([]string)
//	count()            number of traversers (int)
//	values(key)        property values ([]any)
//	path()             full vertex paths ([][]string)
//
// The leading "g." is optional. String arguments use single quotes
// (doubled to escape); numbers parse as int64/float64; true/false as
// booleans.
func (g *Graph) Query(q string) (any, error) {
	calls, err := parseGremlin(q)
	if err != nil {
		return nil, err
	}
	if len(calls) == 0 {
		return nil, fmt.Errorf("graph: empty query")
	}
	if calls[0].name != "V" {
		return nil, fmt.Errorf("graph: query must start with V(), got %s()", calls[0].name)
	}
	ids, err := stringArgs(calls[0])
	if err != nil {
		return nil, err
	}
	t := g.V(ids...)
	for i, call := range calls[1:] {
		terminal := i == len(calls)-2
		switch call.name {
		case "hasLabel":
			labels, err := stringArgs(call)
			if err != nil {
				return nil, err
			}
			if len(labels) == 0 {
				return nil, fmt.Errorf("graph: hasLabel needs at least one label")
			}
			t = t.HasLabel(labels...)
		case "has":
			if len(call.args) != 2 {
				return nil, fmt.Errorf("graph: has(key, value) takes 2 args, got %d", len(call.args))
			}
			key, ok := call.args[0].(string)
			if !ok {
				return nil, fmt.Errorf("graph: has key must be a string")
			}
			t = t.Has(key, call.args[1])
		case "out":
			labels, err := stringArgs(call)
			if err != nil {
				return nil, err
			}
			t = t.Out(labels...)
		case "in":
			labels, err := stringArgs(call)
			if err != nil {
				return nil, err
			}
			t = t.In(labels...)
		case "dedup":
			if len(call.args) != 0 {
				return nil, fmt.Errorf("graph: dedup takes no args")
			}
			t = t.Dedup()
		case "limit":
			if len(call.args) != 1 {
				return nil, fmt.Errorf("graph: limit(n) takes 1 arg")
			}
			n, ok := call.args[0].(int64)
			if !ok || n < 0 {
				return nil, fmt.Errorf("graph: limit arg must be a non-negative integer")
			}
			t = t.Limit(int(n))
		case "ids":
			if !terminal {
				return nil, fmt.Errorf("graph: ids() must be the final step")
			}
			return answer(t.IDs())
		case "count":
			if !terminal {
				return nil, fmt.Errorf("graph: count() must be the final step")
			}
			return answer(t.Count())
		case "values":
			if !terminal {
				return nil, fmt.Errorf("graph: values() must be the final step")
			}
			if len(call.args) != 1 {
				return nil, fmt.Errorf("graph: values(key) takes 1 arg")
			}
			key, ok := call.args[0].(string)
			if !ok {
				return nil, fmt.Errorf("graph: values key must be a string")
			}
			return answer(t.Values(key))
		case "path":
			if !terminal {
				return nil, fmt.Errorf("graph: path() must be the final step")
			}
			return answer(t.Paths())
		default:
			return nil, fmt.Errorf("graph: unknown step %q", call.name)
		}
	}
	return answer(t.IDs())
}

// answer hands a terminal step's result to Query's caller: nil when the
// step failed, never a nil slice inside a non-nil interface.
func answer[T any](v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

type gremlinCall struct {
	name string
	args []any
}

// parseGremlin splits "g.V().out('x')" into calls with typed args.
func parseGremlin(q string) ([]gremlinCall, error) {
	s := strings.TrimSpace(q)
	s = strings.TrimPrefix(s, "g.")
	var calls []gremlinCall
	i := 0
	for i < len(s) {
		// Step name.
		start := i
		for i < len(s) && s[i] != '(' {
			if s[i] == '.' || s[i] == ')' || s[i] == '\'' {
				return nil, fmt.Errorf("graph: unexpected %q at position %d", s[i], i)
			}
			i++
		}
		if i == len(s) {
			return nil, fmt.Errorf("graph: step %q missing parentheses", s[start:])
		}
		name := strings.TrimSpace(s[start:i])
		if name == "" {
			return nil, fmt.Errorf("graph: empty step name at position %d", start)
		}
		i++ // consume '('
		// Arguments up to the matching ')'.
		argStart := i
		depth := 1
		inStr := false
		for i < len(s) && depth > 0 {
			switch {
			case s[i] == '\'':
				// Doubled quote is an escape inside a string.
				if inStr && i+1 < len(s) && s[i+1] == '\'' {
					i++
				} else {
					inStr = !inStr
				}
			case inStr:
			case s[i] == '(':
				depth++
			case s[i] == ')':
				depth--
			}
			i++
		}
		if depth != 0 || inStr {
			return nil, fmt.Errorf("graph: unterminated step %s(", name)
		}
		args, err := parseGremlinArgs(s[argStart : i-1])
		if err != nil {
			return nil, fmt.Errorf("graph: step %s: %w", name, err)
		}
		calls = append(calls, gremlinCall{name: name, args: args})
		// Separator.
		if i < len(s) {
			if s[i] != '.' {
				return nil, fmt.Errorf("graph: expected '.' after %s(), got %q", name, s[i])
			}
			i++
		}
	}
	return calls, nil
}

func parseGremlinArgs(s string) ([]any, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var parts []string
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			if inStr && i+1 < len(s) && s[i+1] == '\'' {
				i++
			} else {
				inStr = !inStr
			}
		case s[i] == ',' && !inStr:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if inStr {
		return nil, fmt.Errorf("unterminated string")
	}
	parts = append(parts, s[start:])
	out := make([]any, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		switch {
		case len(p) >= 2 && p[0] == '\'' && p[len(p)-1] == '\'':
			out[i] = strings.ReplaceAll(p[1:len(p)-1], "''", "'")
		case p == "true":
			out[i] = true
		case p == "false":
			out[i] = false
		default:
			if n, err := strconv.ParseInt(p, 10, 64); err == nil {
				out[i] = n
			} else if f, err := strconv.ParseFloat(p, 64); err == nil {
				out[i] = f
			} else {
				return nil, fmt.Errorf("bad argument %q (strings use single quotes)", p)
			}
		}
	}
	return out, nil
}

func stringArgs(c gremlinCall) ([]string, error) {
	out := make([]string, len(c.args))
	for i, a := range c.args {
		s, ok := a.(string)
		if !ok {
			return nil, fmt.Errorf("graph: %s arg %d must be a string, got %T", c.name, i+1, a)
		}
		out[i] = s
	}
	return out, nil
}
