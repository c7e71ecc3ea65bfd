//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled derive macros — no `syn`/`quote` (unavailable offline).
//! A small token-tree walker extracts the item's shape (struct with named
//! or tuple fields, or enum with unit/tuple/struct variants), and both
//! derives read that one shape.
//!
//! `Serialize` emits an impl of the vendored `serde::Serialize` trait
//! whose body calls the `serde::Json` writer directly, in one pass. Named
//! structs become objects, tuple structs arrays and newtype structs their
//! inner value. Externally-tagged enum encoding matches real serde: unit
//! variants become strings, newtype variants wrap the inner value, longer
//! tuple variants wrap an array, struct variants wrap an object.
//!
//! `FromJson` emits the inverse, an impl of `serde_json::FromJson`, for
//! the shapes records use: named structs, and enums of unit and struct
//! variants. Each field reads through `serde_json::field`, so the read
//! rule stated on that trait is the only one.
//!
//! Limitations (checked, with clear panics): no generic parameters, no
//! `#[serde(...)]` attribute processing. Neither occurs in this
//! workspace.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// Derives the vendored `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.kind {
        ItemKind::Struct(fields) => {
            let values: Vec<String> = fields
                .names()
                .iter()
                .map(|f| format!("&self.{f}"))
                .collect();
            write_fields(fields, &values)
        }
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                // Bind fields as `f_<name>` so no field shadows `out`; a
                // brace pattern binds tuple fields by index too (`{ 0: f_0 }`).
                let names = v.fields.names();
                let binds: Vec<String> = names.iter().map(|f| format!("f_{f}")).collect();
                let pat: String = names.iter().map(|f| format!("{f}: f_{f},")).collect();
                let body = match &v.fields {
                    Fields::Unit => format!("out.str(\"{}\");", v.name),
                    fields => format!(
                        "out.begin_object(); out.key(\"{}\"); {} out.end_object();",
                        v.name,
                        write_fields(fields, &binds)
                    ),
                };
                arms.push_str(&format!(
                    "{}::{} {{ {pat} }} => {{ {body} }}\n",
                    item.name, v.name
                ));
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{ fn serialize(&self, out: &mut ::serde::Json) {{ {body} }} }}",
        item.name
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the vendored `serde_json::FromJson`.
#[proc_macro_derive(FromJson)]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    // A struct or struct variant reads its fields from an object only.
    let object = "let v = ::serde_json::object(v)?;";
    let field = |f: &str| format!("::serde_json::field(v, \"{f}\")?");
    let (from_json, absent) = match &item.kind {
        ItemKind::Struct(fields) => (
            format!("{object} {}", construct(name, fields, &field)),
            construct(name, fields, &|_| "::serde_json::FromJson::absent()?".to_string()),
        ),
        ItemKind::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| match &v.fields {
                    Fields::Unit => format!("(\"{0}\", _) => Some({name}::{0}),", v.name),
                    fields => format!(
                        "(\"{}\", v) => {{ {object} {} }}",
                        v.name,
                        construct(&format!("{name}::{}", v.name), fields, &field)
                    ),
                })
                .collect();
            let tagged = format!("match ::serde_json::variant(v)? {{ {arms} _ => None }}");
            (tagged, "None".to_string())
        }
    };
    format!(
        "impl ::serde_json::FromJson for {name} {{ \
         fn from_json(v: &::serde_json::Value) -> Option<Self> {{ {from_json} }} \
         fn absent() -> Option<Self> {{ {absent} }} }}"
    )
    .parse()
    .expect("generated FromJson impl parses")
}

/// `Some(<path> { f: <read(f)>, ... })` for named fields.
fn construct(path: &str, fields: &Fields, read: &dyn Fn(&str) -> String) -> String {
    let Fields::Named(names) = fields else {
        panic!("FromJson derives only named structs and struct variants, not `{path}`");
    };
    let inits: String = names.iter().map(|f| format!("{f}: {},", read(f))).collect();
    format!("Some({path} {{ {inits} }})")
}

/// The writer calls for one set of fields, each value an expression of
/// reference type: the value itself for one unnamed field, an array for
/// several, an object for named fields.
fn write_fields(fields: &Fields, values: &[String]) -> String {
    match fields {
        Fields::Tuple(_) if values.len() == 1 => {
            format!("::serde::Serialize::serialize({}, out);", values[0])
        }
        Fields::Named(names) => {
            let calls: String = names
                .iter()
                .zip(values)
                .map(|(n, v)| format!("out.field(\"{n}\", {v});"))
                .collect();
            format!("out.begin_object(); {calls} out.end_object();")
        }
        _ => {
            let calls: String = values.iter().map(|v| format!("out.element({v});")).collect();
            format!("out.begin_seq(); {calls} out.end_seq();")
        }
    }
}

/// A struct's or variant's fields: a unit variant has none, tuple fields
/// are named by index.
enum Fields {
    Unit,
    Tuple(Vec<String>),
    Named(Vec<String>),
}

impl Fields {
    fn names(&self) -> &[String] {
        match self {
            Fields::Unit => &[],
            Fields::Tuple(names) | Fields::Named(names) => names,
        }
    }
}

struct Variant {
    name: String,
    fields: Fields,
}

enum ItemKind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    kind: ItemKind,
}

// ---- token-tree parsing ----

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.peek().cloned();
        self.pos += usize::from(t.is_some());
        t
    }

    fn skip_attributes(&mut self) {
        while matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            self.pos += 2; // '#' and its `[...]` group
        }
    }

    fn skip_visibility(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
            self.next();
            // pub(crate) / pub(super) / ...
            if matches!(
                self.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                self.next();
            }
        }
    }

    fn expect_ident(&mut self) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected identifier, got {other:?}"),
        }
    }

    /// Consumes tokens up to (and including) a top-level comma, tracking
    /// angle-bracket depth so commas inside `Foo<A, B>` do not split.
    /// Returns false when the stream is exhausted without any token.
    fn skip_until_top_level_comma(&mut self) -> bool {
        let mut saw_any = false;
        let mut angle_depth: i32 = 0;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    self.next();
                    return true;
                }
                _ => {}
            }
            saw_any = true;
            self.next();
        }
        saw_any
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut c = Cursor::new(input);
    c.skip_attributes();
    c.skip_visibility();
    let keyword = c.expect_ident();
    let name = c.expect_ident();
    if matches!(c.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive stand-in does not support generic parameters on `{name}`");
    }
    let kind = match (keyword.as_str(), c.next()) {
        ("struct", Some(TokenTree::Group(g))) => ItemKind::Struct(parse_fields(&g)),
        ("enum", Some(TokenTree::Group(g))) => ItemKind::Enum(parse_enum_variants(&g)),
        (other, body) => panic!("expected a struct or enum body, got `{other}` {body:?}"),
    };
    Item { name, kind }
}

/// The fields of a brace (named) or parenthesis (tuple) group.
fn parse_fields(group: &Group) -> Fields {
    let named = group.delimiter() == Delimiter::Brace;
    let mut c = Cursor::new(group.stream());
    let mut names = Vec::new();
    loop {
        c.skip_attributes();
        if c.peek().is_none() {
            break;
        }
        c.skip_visibility();
        // A named field's type follows its name and is skipped with it.
        names.push(if named { c.expect_ident() } else { names.len().to_string() });
        if !c.skip_until_top_level_comma() {
            break;
        }
    }
    if named {
        Fields::Named(names)
    } else {
        Fields::Tuple(names)
    }
}

fn parse_enum_variants(group: &Group) -> Vec<Variant> {
    let mut c = Cursor::new(group.stream());
    let mut variants = Vec::new();
    loop {
        c.skip_attributes();
        if c.peek().is_none() {
            break;
        }
        let name = c.expect_ident();
        let fields = match c.peek() {
            Some(TokenTree::Group(g)) => {
                let fields = parse_fields(g);
                c.next();
                fields
            }
            _ => Fields::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the trailing comma.
        c.skip_until_top_level_comma();
        variants.push(Variant { name, fields });
    }
    variants
}
