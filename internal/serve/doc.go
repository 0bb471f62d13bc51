package serve

import (
	"fmt"
	"slices"
	"strconv"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// Instance documents: the nested-object shape of viewobject.ToMap —
// projected attribute name → value, child node ID → array of child
// documents — but with every value in the codec's wire form, so a
// document fetched from GET /objects/{name}/{key} can be edited and sent
// back through POST /objects/{name}:replace without any value changing
// identity along the way.

// InstanceDoc converts an instance to its JSON-ready document.
func InstanceDoc(inst *viewobject.Instance) map[string]any {
	return nodeDoc(inst.Definition(), inst.Root())
}

func nodeDoc(def *viewobject.Definition, in *viewobject.InstNode) map[string]any {
	n := in.Node()
	schema := def.NodeSchema(n)
	tuple := in.Tuple()
	out := make(map[string]any, len(n.Attrs)+len(n.Children))
	for _, attr := range n.Attrs {
		idx, ok := schema.AttrIndex(attr)
		if !ok {
			continue
		}
		out[attr] = EncodeValue(tuple[idx])
	}
	for _, child := range n.Children {
		kids := in.Children(child.ID)
		docs := make([]any, len(kids))
		for i, k := range kids {
			docs[i] = nodeDoc(def, k)
		}
		out[child.ID] = docs
	}
	return out
}

// AppendInstance appends inst's document to dst: exactly the bytes a
// json.Encoder with SetEscapeHTML(false) writes for InstanceDoc(inst),
// without the trailing newline, written straight from the component
// tuples — no map tree, no reflection.
func AppendInstance(dst []byte, inst *viewobject.Instance) []byte {
	var e docEncoder
	return e.appendNode(dst, inst.Definition(), inst.Root())
}

// AppendQueryBody appends the body GET /objects/{name} answers with:
// exactly the bytes a json.Encoder with SetEscapeHTML(false) writes for
// {"count": len(insts), "generation": gen, "instances": [InstanceDoc
// of each instance]}, trailing newline included.
func AppendQueryBody(dst []byte, insts []*viewobject.Instance, gen uint64) []byte {
	var e docEncoder
	dst = append(dst, `{"count":`...)
	dst = strconv.AppendInt(dst, int64(len(insts)), 10)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendUint(dst, gen, 10)
	dst = append(dst, `,"instances":[`...)
	for i, inst := range insts {
		if i > 0 {
			dst = append(dst, ',')
		}
		start := len(dst)
		dst = e.appendNode(dst, inst.Definition(), inst.Root())
		if i == 0 {
			// Size the body once from the first document, with a
			// quarter's headroom, instead of regrowing it by a quarter
			// at a time, which copies a large answer many times over.
			dst = slices.Grow(dst, (len(dst)-start+1)*(len(insts)-1)*5/4+len("]}\n"))
		}
	}
	return append(dst, "]}\n"...)
}

// docEncoder writes instance documents for one response. It memoizes
// each definition node's layout, so a response of many instances sorts
// every node's keys once. The memo lives and dies with the response:
// sharded instances carry their shard's own Definition, so nodes are
// keyed by pointer and nothing is shared across requests.
type docEncoder struct {
	layouts map[*viewobject.Node]nodeLayout
}

// nodeLayout is a node's document keys as InstanceDoc's map holds them
// (a child node ID shadows an attribute of the same name), in the
// bytewise order encoding/json sorts map keys into.
type nodeLayout struct {
	// keys holds every field's prefix back to back: the separating
	// comma (none before the first), the escaped, quoted key and its
	// colon, as in `"A":,"B":`.
	keys   []byte
	fields []docField
}

// docField is one key of a node's document: a projected attribute or a
// child node ID.
type docField struct {
	name   string // the attribute name or child node ID
	attr   int    // the attribute's tuple index; -1 for a child node
	keyEnd int    // where this field's prefix ends in keys
}

func (e *docEncoder) appendNode(dst []byte, def *viewobject.Definition, in *viewobject.InstNode) []byte {
	l := e.layout(def, in.Node())
	dst = append(dst, '{')
	start := 0
	for _, f := range l.fields {
		dst = append(dst, l.keys[start:f.keyEnd]...)
		start = f.keyEnd
		if f.attr >= 0 {
			dst = AppendValue(dst, in.Value(f.attr))
			continue
		}
		dst = append(dst, '[')
		for j, n := 0, in.NumChildren(f.name); j < n; j++ {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = e.appendNode(dst, def, in.Child(f.name, j))
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func (e *docEncoder) layout(def *viewobject.Definition, n *viewobject.Node) nodeLayout {
	if l, ok := e.layouts[n]; ok {
		return l
	}
	fields := make([]docField, 0, len(n.Attrs)+len(n.Children))
	put := func(f docField) {
		for i := range fields {
			if fields[i].name == f.name {
				fields[i] = f
				return
			}
		}
		fields = append(fields, f)
	}
	schema := def.NodeSchema(n)
	for _, attr := range n.Attrs {
		if idx, ok := schema.AttrIndex(attr); ok {
			put(docField{name: attr, attr: idx})
		}
	}
	for _, child := range n.Children {
		put(docField{name: child.ID, attr: -1})
	}
	// Insertion sort: a node has a handful of fields.
	size := 0
	for i := range fields {
		for j := i; j > 0 && fields[j-1].name > fields[j].name; j-- {
			fields[j-1], fields[j] = fields[j], fields[j-1]
		}
		size += len(fields[i].name) + len(`,"":`)
	}
	keys := make([]byte, 0, size)
	for i := range fields {
		if i > 0 {
			keys = append(keys, ',')
		}
		keys = append(appendString(keys, fields[i].name), ':')
		fields[i].keyEnd = len(keys)
	}
	l := nodeLayout{keys: keys, fields: fields}
	if e.layouts == nil {
		e.layouts = make(map[*viewobject.Node]nodeLayout)
	}
	e.layouts[n] = l
	return l
}

// InstanceFromDoc builds an instance of def from a decoded document of
// the shape InstanceDoc produces. Attributes absent from a document
// become null; field names that are neither projected attributes nor
// child node IDs are rejected, so a typo'd attribute fails loudly
// instead of silently nulling the real one.
func InstanceFromDoc(def *viewobject.Definition, doc map[string]any) (*viewobject.Instance, error) {
	tuple, err := docTuple(def, def.Root(), doc)
	if err != nil {
		return nil, err
	}
	inst, err := viewobject.NewInstance(def, tuple)
	if err != nil {
		return nil, err
	}
	if err := fillChildren(def, inst.Root(), doc); err != nil {
		return nil, err
	}
	return inst, nil
}

func docTuple(def *viewobject.Definition, n *viewobject.Node, doc map[string]any) (reldb.Tuple, error) {
	schema := def.NodeSchema(n)
	childIDs := make(map[string]bool, len(n.Children))
	for _, c := range n.Children {
		childIDs[c.ID] = true
	}
	tuple := make(reldb.Tuple, schema.Arity())
	for field, raw := range doc {
		if childIDs[field] {
			continue
		}
		idx, ok := schema.AttrIndex(field)
		if !ok {
			return nil, fmt.Errorf("node %s: field %q is neither an attribute of %s nor a child node",
				n.ID, field, n.Relation)
		}
		v, err := DecodeValue(raw)
		if err != nil {
			return nil, fmt.Errorf("node %s: field %q: %w", n.ID, field, err)
		}
		tuple[idx] = v
	}
	return tuple, nil
}

func fillChildren(def *viewobject.Definition, in *viewobject.InstNode, doc map[string]any) error {
	for _, child := range in.Node().Children {
		raw, ok := doc[child.ID]
		if !ok || raw == nil {
			continue
		}
		list, ok := raw.([]any)
		if !ok {
			return fmt.Errorf("node %s: child %s must be an array", in.Node().ID, child.ID)
		}
		for _, item := range list {
			childDoc, ok := item.(map[string]any)
			if !ok {
				return fmt.Errorf("node %s: child %s holds a non-object element", in.Node().ID, child.ID)
			}
			tuple, err := docTuple(def, child, childDoc)
			if err != nil {
				return err
			}
			cn, err := in.AddChild(def, child.ID, tuple)
			if err != nil {
				return err
			}
			if err := fillChildren(def, cn, childDoc); err != nil {
				return err
			}
		}
	}
	return nil
}
