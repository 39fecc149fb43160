//! Derive macros for the vendored serde stand-in.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` without
//! syn/quote (the build environment is offline): the item is parsed at the
//! `proc_macro` token level into a small shape model, and the impl is
//! generated as a string and re-parsed into a `TokenStream`.
//!
//! Supported shapes — exactly what this workspace derives on:
//! - structs with named fields
//! - enums with unit, newtype (one-field tuple), and struct variants,
//!   serialized externally tagged like serde_json
//! - container attributes `#[serde(try_from = "T")]` and
//!   `#[serde(into = "T")]`
//! - the field attribute `#[serde(skip)]` (omitted on serialize,
//!   `Default::default()` on deserialize)

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

struct Input {
    name: String,
    data: Data,
    try_from: Option<String>,
    into: Option<String>,
}

enum Data {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    skip: bool,
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

/// Derives the stand-in `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_input(input) {
        Ok(item) => gen_serialize(&item)
            .parse()
            .expect("generated Serialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives the stand-in `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_input(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated Deserialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({:?});", msg).parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn is_ident(tok: &TokenTree, text: &str) -> bool {
    matches!(tok, TokenTree::Ident(id) if id.to_string() == text)
}

fn is_punct(tok: &TokenTree, ch: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == ch)
}

/// Extracts the `key` / `key = "value"` entries of a `#[serde(...)]`
/// attribute group; returns `None` for any other attribute.
fn serde_attr_entries(attr: &Group) -> Option<Vec<(String, Option<String>)>> {
    let toks: Vec<TokenTree> = attr.stream().into_iter().collect();
    match toks.first() {
        Some(tok) if is_ident(tok, "serde") => {}
        _ => return None,
    }
    let inner = match toks.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        _ => return None,
    };
    let mut entries = Vec::new();
    let mut iter = inner.into_iter().peekable();
    while let Some(tok) = iter.next() {
        let key = match tok {
            TokenTree::Ident(id) => id.to_string(),
            TokenTree::Punct(p) if p.as_char() == ',' => continue,
            _ => return None,
        };
        let value = match iter.peek() {
            Some(tok) if is_punct(tok, '=') => {
                iter.next();
                match iter.next() {
                    Some(TokenTree::Literal(lit)) => {
                        let text = lit.to_string();
                        Some(text.trim_matches('"').to_string())
                    }
                    _ => return None,
                }
            }
            _ => None,
        };
        entries.push((key, value));
    }
    Some(entries)
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut try_from = None;
    let mut into = None;

    // Leading attributes and visibility.
    loop {
        match toks.get(i) {
            Some(tok) if is_punct(tok, '#') => {
                let Some(TokenTree::Group(g)) = toks.get(i + 1) else {
                    return Err("malformed attribute".into());
                };
                if let Some(entries) = serde_attr_entries(g) {
                    for (key, value) in entries {
                        match key.as_str() {
                            "try_from" => try_from = value,
                            "into" => into = value,
                            // Container-level attrs we can safely ignore.
                            "deny_unknown_fields" => {}
                            other => {
                                return Err(format!(
                                    "unsupported container serde attribute `{other}`"
                                ))
                            }
                        }
                    }
                }
                i += 2;
            }
            Some(tok) if is_ident(tok, "pub") => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            Some(tok) if is_ident(tok, "struct") || is_ident(tok, "enum") => break,
            other => return Err(format!("unsupported item prefix: {other:?}")),
        }
    }

    let is_enum = is_ident(&toks[i], "enum");
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    i += 1;

    // Generic items are not used with these derives in this workspace.
    let body = loop {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!("tuple struct `{name}` is not supported"))
            }
            Some(tok) if is_punct(tok, '<') => {
                return Err(format!("generic item `{name}` is not supported"))
            }
            Some(_) => i += 1,
            None => return Err(format!("missing body for `{name}`")),
        }
    };

    let data = if is_enum {
        Data::Enum(parse_variants(body)?)
    } else {
        Data::Struct(parse_fields(body)?)
    };
    Ok(Input {
        name,
        data,
        try_from,
        into,
    })
}

/// Parses the fields and any leading attributes of one comma-separated
/// item list element; returns the index after the element.
fn take_field(toks: &[TokenTree], mut i: usize) -> Result<(Field, usize), String> {
    let mut skip = false;
    while let Some(tok) = toks.get(i) {
        if !is_punct(tok, '#') {
            break;
        }
        let Some(TokenTree::Group(g)) = toks.get(i + 1) else {
            return Err("malformed field attribute".into());
        };
        if let Some(entries) = serde_attr_entries(g) {
            for (key, _) in entries {
                match key.as_str() {
                    "skip" => skip = true,
                    "default" => {}
                    other => return Err(format!("unsupported field serde attribute `{other}`")),
                }
            }
        }
        i += 2;
    }
    if let Some(tok) = toks.get(i) {
        if is_ident(tok, "pub") {
            i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected field name, got {other:?}")),
    };
    i += 1;
    match toks.get(i) {
        Some(tok) if is_punct(tok, ':') => i += 1,
        other => return Err(format!("expected `:` after field `{name}`, got {other:?}")),
    }
    // Skip the type: everything up to a comma at angle-bracket depth 0.
    let mut depth = 0i32;
    while let Some(tok) = toks.get(i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    if toks.get(i).is_some() {
        i += 1; // consume the comma
    }
    Ok((Field { name, skip }, i))
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (field, next) = take_field(&toks, i)?;
        fields.push(field);
        i = next;
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Variant attributes (doc comments etc.) carry nothing we need.
        while let Some(tok) = toks.get(i) {
            if !is_punct(tok, '#') {
                break;
            }
            i += 2;
        }
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                let has_comma = g
                    .stream()
                    .into_iter()
                    .any(|tok| is_punct(&tok, ',') && !matches!(tok, TokenTree::Group(_)));
                if has_comma {
                    return Err(format!(
                        "multi-field tuple variant `{name}` is not supported"
                    ));
                }
                VariantKind::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream())?;
                i += 1;
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        if let Some(tok) = toks.get(i) {
            if is_punct(tok, ',') {
                i += 1;
            } else {
                return Err(format!("expected `,` after variant `{name}`"));
            }
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn push_fields_code(out: &mut String, fields: &[Field], access_prefix: &str) {
    out.push_str(
        "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::new();\n",
    );
    for field in fields.iter().filter(|f| !f.skip) {
        out.push_str(&format!(
            "__fields.push((::std::string::String::from(\"{name}\"), \
             ::serde::Serialize::to_value({access_prefix}{name})));\n",
            name = field.name,
        ));
    }
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let mut body = String::new();
    if let Some(repr) = &input.into {
        body.push_str(&format!(
            "let __repr: {repr} = ::std::convert::Into::into(::std::clone::Clone::clone(self));\n\
             ::serde::Serialize::to_value(&__repr)\n"
        ));
    } else {
        match &input.data {
            Data::Struct(fields) => {
                push_fields_code(&mut body, fields, "&self.");
                body.push_str("::serde::Value::Object(__fields)\n");
            }
            Data::Enum(variants) => {
                body.push_str("match self {\n");
                for v in variants {
                    let tag = &v.name;
                    match &v.kind {
                        VariantKind::Unit => body.push_str(&format!(
                            "{name}::{tag} => \
                             ::serde::Value::String(::std::string::String::from(\"{tag}\")),\n"
                        )),
                        VariantKind::Newtype => body.push_str(&format!(
                            "{name}::{tag}(__x) => {{\n\
                             let mut __outer: ::std::vec::Vec<(::std::string::String, \
                             ::serde::Value)> = ::std::vec::Vec::new();\n\
                             __outer.push((::std::string::String::from(\"{tag}\"), \
                             ::serde::Serialize::to_value(__x)));\n\
                             ::serde::Value::Object(__outer)\n\
                             }}\n"
                        )),
                        VariantKind::Struct(fields) => {
                            let bindings: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            body.push_str(&format!(
                                "{name}::{tag} {{ {} }} => {{\n",
                                bindings.join(", ")
                            ));
                            push_fields_code(&mut body, fields, "");
                            body.push_str(&format!(
                                "let mut __outer: ::std::vec::Vec<(::std::string::String, \
                                 ::serde::Value)> = ::std::vec::Vec::new();\n\
                                 __outer.push((::std::string::String::from(\"{tag}\"), \
                                 ::serde::Value::Object(__fields)));\n\
                                 ::serde::Value::Object(__outer)\n\
                                 }}\n"
                            ));
                        }
                    }
                }
                body.push_str("}\n");
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, unused_mut)]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}}}\n\
         }}\n"
    )
}

fn push_struct_literal(out: &mut String, ty_label: &str, ctor: &str, fields: &[Field], src: &str) {
    out.push_str(&format!("::std::result::Result::Ok({ctor} {{\n"));
    for field in fields {
        if field.skip {
            out.push_str(&format!(
                "{}: ::std::default::Default::default(),\n",
                field.name
            ));
        } else {
            out.push_str(&format!(
                "{name}: ::serde::__private::field({src}, \"{ty_label}\", \"{name}\")?,\n",
                name = field.name,
            ));
        }
    }
    out.push_str("})\n");
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let mut body = String::new();
    if let Some(repr) = &input.try_from {
        body.push_str(&format!(
            "let __repr: {repr} = ::serde::Deserialize::from_value(__v)?;\n\
             ::std::convert::TryFrom::try_from(__repr).map_err(::serde::DeError::custom)\n"
        ));
    } else {
        match &input.data {
            Data::Struct(fields) => {
                push_struct_literal(&mut body, name, name, fields, "__v");
            }
            Data::Enum(variants) => {
                body.push_str("match __v {\n::serde::Value::String(__s) => match __s.as_str() {\n");
                for v in variants {
                    if matches!(v.kind, VariantKind::Unit) {
                        body.push_str(&format!(
                            "\"{tag}\" => ::std::result::Result::Ok({name}::{tag}),\n",
                            tag = v.name
                        ));
                    }
                }
                body.push_str(&format!(
                    "__other => ::std::result::Result::Err(\
                     ::serde::__private::unknown_variant(\"{name}\", __other)),\n}},\n"
                ));
                body.push_str(
                    "::serde::Value::Object(__entries) if __entries.len() == 1 => {\n\
                     let (__tag, __inner) = &__entries[0];\n\
                     match __tag.as_str() {\n",
                );
                for v in variants {
                    let tag = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {}
                        VariantKind::Newtype => body.push_str(&format!(
                            "\"{tag}\" => ::std::result::Result::Ok({name}::{tag}(\
                             ::serde::__private::variant_payload(__inner, \"{name}\", \
                             \"{tag}\")?)),\n"
                        )),
                        VariantKind::Struct(fields) => {
                            body.push_str(&format!("\"{tag}\" => {{\n"));
                            push_struct_literal(
                                &mut body,
                                &format!("{name}::{tag}"),
                                &format!("{name}::{tag}"),
                                fields,
                                "__inner",
                            );
                            body.push_str("}\n");
                        }
                    }
                }
                body.push_str(&format!(
                    "__other => ::std::result::Result::Err(\
                     ::serde::__private::unknown_variant(\"{name}\", __other)),\n\
                     }}\n}}\n\
                     __other => ::std::result::Result::Err(\
                     ::serde::__private::bad_enum(\"{name}\", __other)),\n}}\n"
                ));
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all)]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n{body}}}\n\
         }}\n"
    )
}
