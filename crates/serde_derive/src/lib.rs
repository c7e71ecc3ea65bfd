//! Offline stand-in for `serde_derive`.
//!
//! A hand-rolled derive macro — no `syn`/`quote` (unavailable offline).
//! A small token-tree walker extracts the item's shape (struct with
//! named/tuple/unit fields, or enum with unit/tuple/struct variants) and
//! emits an impl of the vendored `serde::Serialize` trait whose body
//! calls the `serde::Json` writer directly, in one pass. Named structs
//! become objects, tuple structs arrays, newtype structs their inner
//! value and unit structs `null`. Externally-tagged enum encoding matches
//! real serde: unit variants become strings, newtype variants wrap the
//! inner value, longer tuple variants wrap an array, struct variants wrap
//! an object.
//!
//! Limitations (checked, with clear panics): no generic parameters, no
//! `#[serde(...)]` attribute processing. Neither occurs in this
//! workspace.

use proc_macro::{Delimiter, TokenStream, TokenTree};

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
                // Bind fields as `f_<name>` so no field shadows `out`.
                let names = v.fields.names();
                let binds: Vec<String> = names.iter().map(|f| format!("f_{f}")).collect();
                let pat = match &v.fields {
                    Fields::Unit => String::new(),
                    Fields::Tuple(_) => format!("({})", binds.join(", ")),
                    Fields::Named(_) => {
                        let pairs: Vec<String> = names
                            .iter()
                            .zip(&binds)
                            .map(|(f, b)| format!("{f}: {b}"))
                            .collect();
                        format!(" {{ {} }}", pairs.join(", "))
                    }
                };
                let body = match &v.fields {
                    Fields::Unit => format!("out.str(\"{}\");", v.name),
                    fields => format!(
                        "out.begin_object(); out.key(\"{}\"); {} out.end_object();",
                        v.name,
                        write_fields(fields, &binds)
                    ),
                };
                arms.push_str(&format!("{}::{}{pat} => {{ {body} }}\n", item.name, v.name));
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

/// The writer calls for one set of fields, each value an expression of
/// reference type: `null` for unit, the value itself for one unnamed
/// field, an array for several, an object for named fields.
fn write_fields(fields: &Fields, values: &[String]) -> String {
    let calls = |f: &dyn Fn(usize, &String) -> String| {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| f(i, v))
            .collect::<String>()
    };
    match fields {
        Fields::Unit => "out.null();".to_string(),
        Fields::Tuple(1) => format!("::serde::Serialize::serialize({}, out);", values[0]),
        Fields::Tuple(_) => format!(
            "out.begin_seq(); {} out.end_seq();",
            calls(&|_, v| format!("out.element({v});"))
        ),
        Fields::Named(names) => format!(
            "out.begin_object(); {} out.end_object();",
            calls(&|i, v| format!("out.field(\"{}\", {v});", names[i]))
        ),
    }
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

impl Fields {
    /// Field names, with tuple fields named by index.
    fn names(&self) -> Vec<String> {
        match self {
            Fields::Unit => Vec::new(),
            Fields::Tuple(n) => (0..*n).map(|i| i.to_string()).collect(),
            Fields::Named(names) => names.clone(),
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
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn skip_attributes(&mut self) {
        while matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            self.next(); // '#'
            match self.next() {
                Some(TokenTree::Group(_)) => {}
                other => panic!("expected attribute body after '#', got {other:?}"),
            }
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
    let kind = match keyword.as_str() {
        "struct" => ItemKind::Struct(parse_struct_fields(&mut c)),
        "enum" => ItemKind::Enum(parse_enum_variants(&mut c)),
        other => panic!("expected `struct` or `enum`, got `{other}`"),
    };
    Item { name, kind }
}

fn parse_struct_fields(c: &mut Cursor) -> Fields {
    match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(count_tuple_fields(g.stream()))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        other => panic!("unsupported struct body: {other:?}"),
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut c = Cursor::new(stream);
    let mut names = Vec::new();
    loop {
        c.skip_attributes();
        if c.peek().is_none() {
            break;
        }
        c.skip_visibility();
        names.push(c.expect_ident());
        match c.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected ':' after field name, got {other:?}"),
        }
        if !c.skip_until_top_level_comma() {
            break;
        }
    }
    names
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut c = Cursor::new(stream);
    let mut count = 0;
    loop {
        c.skip_attributes();
        if c.peek().is_none() {
            break;
        }
        c.skip_visibility();
        count += 1;
        if !c.skip_until_top_level_comma() {
            break;
        }
    }
    count
}

fn parse_enum_variants(c: &mut Cursor) -> Vec<Variant> {
    let group = match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!("expected enum body, got {other:?}"),
    };
    let mut c = Cursor::new(group.stream());
    let mut variants = Vec::new();
    loop {
        c.skip_attributes();
        if c.peek().is_none() {
            break;
        }
        let name = c.expect_ident();
        let fields = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                c.next();
                Fields::Tuple(count_tuple_fields(stream))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                c.next();
                Fields::Named(parse_named_fields(stream))
            }
            _ => Fields::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the trailing comma.
        c.skip_until_top_level_comma();
        variants.push(Variant { name, fields });
    }
    variants
}
