//! The workspace's JSON codec: a small writer and a strict reader.
//!
//! The telemetry crate must build with zero external dependencies (the
//! build environment may be offline), so every artifact is written
//! through these helpers instead of `serde_json` — stable key order,
//! shortest-round-trip floats — and read back by [`parse`]: the
//! committed bench and charmap baselines, and the tests that check
//! emitted documents. The reader follows RFC 8259 and rejects anything
//! else with a byte offset, since baselines come from outside the
//! program.

/// Escapes `s` per RFC 8259 and appends it, quoted, to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` in a JSON-legal form (`NaN`/`inf` become `0`).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` always keeps a decimal point or exponent, so the value
        // round-trips as a JSON number even when integral.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push('0');
    }
}

/// Writes a `[...]` of floats.
pub fn write_f64_array(out: &mut String, values: &[f64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, *v);
    }
    out.push(']');
}

/// Writes a `[...]` of strings.
pub fn write_str_array(out: &mut String, values: &[String]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, v);
    }
    out.push(']');
}

/// An object writer that tracks comma placement.
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens `{` on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, key);
        self.out.push(':');
    }

    /// Writes `"key": "value"`.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_escaped(self.out, value);
        self
    }

    /// Writes `"key": value` for an unsigned integer.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes `"key": value` for a signed integer.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes `"key": value` for a float.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        write_f64(self.out, value);
        self
    }

    /// Writes `"key":` and hands the raw buffer over for a nested value.
    pub fn field_raw(&mut self, key: &str) -> &mut String {
        self.key(key);
        self.out
    }

    /// Closes the object with `}`.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as f64 (integers are exact up to 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if it is a non-negative integer the f64 holds
    /// exactly (at most 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= EXACT).then_some(n as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts, so hostile input
/// cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses `text` into a [`Json`] tree.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.error("trailing data"));
    }
    Ok(v)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() != Some(byte) {
            return false;
        }
        self.pos += 1;
        true
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("bad literal"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && self.digits() == 0 {
            return Err(self.error("expected digit"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.error("expected digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("expected digit"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("number out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the slice ends on a char
            // boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            s.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => s.push(self.escape()?),
                Some(_) => return Err(self.error("unescaped control character")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape at `pos` (which holds the backslash).
    fn escape(&mut self) -> Result<char, String> {
        let start = self.pos;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unpaired = || format!("unpaired surrogate at byte {start}");
                let code = match self.hex4()? {
                    hi @ 0xD800..=0xDBFF => {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(unpaired());
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            lo @ 0xDC00..=0xDFFF => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                            _ => return Err(unpaired()),
                        }
                    }
                    0xDC00..=0xDFFF => return Err(unpaired()),
                    code => code,
                };
                return Ok(char::from_u32(code).expect("non-surrogate code point below 0x110000"));
            }
            _ => return Err(format!("bad escape at byte {start}")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("validated hex digits"))
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected ':'"));
            }
            members.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn escapes_every_control_character() {
        // RFC 8259 §7: U+0000..U+001F MUST be escaped. Anything the
        // short forms don't cover must come out as \u00XX.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let mut s = String::new();
            write_escaped(&mut s, &c.to_string());
            let body = &s[1..s.len() - 1];
            let expected = match c {
                '\n' => "\\n".to_owned(),
                '\r' => "\\r".to_owned(),
                '\t' => "\\t".to_owned(),
                _ => format!("\\u{code:04x}"),
            };
            assert_eq!(body, expected, "control char U+{code:04X}");
        }
    }

    #[test]
    fn escapes_backslash_sequences() {
        let mut s = String::new();
        write_escaped(&mut s, r"C:\temp\new");
        // The backslash is escaped, so `\n`/`\t` in the source text
        // stay literal characters rather than becoming escapes.
        assert_eq!(s, r#""C:\\temp\\new""#);
        let mut s = String::new();
        write_escaped(&mut s, "\\\"");
        assert_eq!(s, r#""\\\"""#);
    }

    #[test]
    fn passes_through_printable_and_unicode() {
        let mut s = String::new();
        write_escaped(&mut s, "héllo ∆ 漢字 ~");
        assert_eq!(s, "\"héllo ∆ 漢字 ~\"");
    }

    #[test]
    fn field_str_emits_valid_json_for_hostile_values() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_str("k", "line1\nline2\tcol\u{1f}end\\");
        o.finish();
        assert_eq!(s, "{\"k\":\"line1\\nline2\\tcol\\u001fend\\\\\"}");
        // Keys are escaped through the same path as values.
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_u64("a\"b\n", 1);
        o.finish();
        assert_eq!(s, "{\"a\\\"b\\n\":1}");
    }

    #[test]
    fn object_commas() {
        let mut s = String::new();
        let mut o = ObjectWriter::new(&mut s);
        o.field_str("name", "x").field_u64("ts", 7).field_f64("v", 1.5);
        o.finish();
        assert_eq!(s, "{\"name\":\"x\",\"ts\":7,\"v\":1.5}");
    }

    #[test]
    fn floats_stay_legal() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        s.push(' ');
        write_f64(&mut s, 2.0);
        assert_eq!(s, "0 2.0");
    }

    #[test]
    fn writer_output_parses_back() {
        let hostile = "a\"b\\c\nd\u{1}é\u{1F600}".to_owned();
        let mut out = String::new();
        let mut o = ObjectWriter::new(&mut out);
        o.field_str(&hostile, "v").field_u64("n", 1 << 53).field_i64("i", -3);
        write_f64_array(o.field_raw("f"), &[1.5, -0.0, 1e-7, 2.0]);
        write_str_array(o.field_raw("s"), &[hostile.clone(), String::new()]);
        o.finish();
        let v = parse(&out).expect("parses");
        assert_eq!(v.get(&hostile).and_then(Json::as_str), Some("v"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(1 << 53));
        assert_eq!(v.get("i").and_then(Json::as_f64), Some(-3.0));
        let floats: Vec<f64> =
            v.get("f").and_then(Json::as_array).unwrap().iter().filter_map(Json::as_f64).collect();
        assert_eq!(floats, [1.5, -0.0, 1e-7, 2.0]);
        let strs: Vec<&str> =
            v.get("s").and_then(Json::as_array).unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(strs, [hostile.as_str(), ""]);
    }

    #[test]
    fn parses_every_value_shape() {
        let v = parse(" {\"a\": [null, true, false, 0, -1.25e+2], \"b\": {}, \"c\": []} ").unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[..3], [Json::Null, Json::Bool(true), Json::Bool(false)]);
        assert_eq!(a[4].as_f64(), Some(-125.0));
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
        assert_eq!(v.get("c"), Some(&Json::Arr(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(60)).as_u64(), None);
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn decodes_every_rfc8259_escape() {
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u2028\uFFFF""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé\u{2028}\u{ffff}"));
    }

    #[test]
    fn decodes_surrogate_pairs() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("\u{1F600}"));
        assert_eq!(parse(r#""x\uD800\uDC00y""#).unwrap().as_str(), Some("x\u{10000}y"));
        assert_eq!(parse(r#""\uDBFF\uDFFF""#).unwrap().as_str(), Some("\u{10FFFF}"));
    }

    #[test]
    fn rejects_bad_escapes_with_offsets() {
        for (doc, offset) in [
            (r#""\x""#, 1),
            (r#""ab\a""#, 3),
            (r#""\u12""#, 3),
            (r#""\u12g4""#, 3),
            (r#""\ud83d""#, 1),
            (r#""\ud83dx""#, 1),
            (r#""\ud83d\u0041""#, 1),
            (r#""\ude00""#, 1),
            ("\"\\", 1),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.ends_with(&format!("at byte {offset}")), "{doc}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for doc in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "\"open",
            "{}x",
            "{1:2}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "nul",
            "tru",
            "01",
            "1.",
            ".5",
            "+1",
            "-",
            "1e",
            "1e+",
            "1e400",
            "\"a\nb\"",
            "\"\u{1f}\"",
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("at byte "), "{doc:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err(), "no stack overflow");
    }
}
