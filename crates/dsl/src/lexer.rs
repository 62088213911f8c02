//! Lexer for the Engage resource-definition language (`.ers`).

use std::fmt;

use crate::span::{Diagnostic, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword (`resource`, `port`, `hostname`, ...).
    Ident(String),
    /// Double-quoted string literal, unescaped.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `<-`
    LArrow,
    /// `->`
    RArrow,
    /// `|`
    Pipe,
    /// `+`
    Plus,
    /// `.`
    Dot,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::Int(n) => write!(f, "{n}"),
            Token::LBrace => write!(f, "`{{`"),
            Token::RBrace => write!(f, "`}}`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::Colon => write!(f, "`:`"),
            Token::Semi => write!(f, "`;`"),
            Token::Comma => write!(f, "`,`"),
            Token::Eq => write!(f, "`=`"),
            Token::LArrow => write!(f, "`<-`"),
            Token::RArrow => write!(f, "`->`"),
            Token::Pipe => write!(f, "`|`"),
            Token::Plus => write!(f, "`+`"),
            Token::Dot => write!(f, "`.`"),
            Token::Lt => write!(f, "`<`"),
            Token::Gt => write!(f, "`>`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Where it came from.
    pub span: Span,
}

/// Tokenizes `.ers` source. `//` line comments and `/* */` block comments
/// are skipped.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unterminated strings/comments, bad escapes,
/// integer overflow, and unexpected characters.
///
/// # Examples
///
/// ```
/// use engage_dsl::lex;
/// let toks = lex("resource \"JDK 1.6\" extends \"Java\" {}").unwrap();
/// assert_eq!(toks.len(), 7); // incl. Eof
/// ```
pub fn lex(src: &str) -> Result<Vec<Spanned>, Diagnostic> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(Diagnostic::new(
                            "unterminated block comment",
                            Span::new(start, bytes.len()),
                        ));
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                }
                i = j + 2;
            }
            '"' => {
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(Diagnostic::new(
                            "unterminated string literal",
                            Span::new(start, bytes.len()),
                        ));
                    }
                    match bytes[j] {
                        b'"' => break,
                        b'\\' => {
                            let esc = bytes.get(j + 1).copied().ok_or_else(|| {
                                Diagnostic::new("dangling escape", Span::new(j, j + 1))
                            })?;
                            match esc {
                                b'"' => s.push('"'),
                                b'\\' => s.push('\\'),
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'r' => s.push('\r'),
                                b'0' => s.push('\0'),
                                // `\u{hex}`, as a printed string literal
                                // (Rust's debug form) writes a control
                                // or other unprintable character.
                                b'u' => {
                                    let (ch, len) =
                                        unicode_escape(&bytes[j + 2..]).ok_or_else(|| {
                                            Diagnostic::new("bad `\\u` escape", Span::new(j, j + 2))
                                        })?;
                                    s.push(ch);
                                    j += len;
                                }
                                other => {
                                    return Err(Diagnostic::new(
                                        format!("unknown escape `\\{}`", other as char),
                                        Span::new(j, j + 2),
                                    ))
                                }
                            }
                            j += 2;
                        }
                        b'\n' => {
                            return Err(Diagnostic::new(
                                "newline in string literal",
                                Span::new(start, j),
                            ))
                        }
                        other => {
                            // Collect a full UTF-8 character.
                            let ch_len = utf8_len(other);
                            s.push_str(std::str::from_utf8(&bytes[j..j + ch_len]).map_err(
                                |_| Diagnostic::new("invalid UTF-8", Span::new(j, j + 1)),
                            )?);
                            j += ch_len;
                        }
                    }
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    span: Span::new(start, j + 1),
                });
                i = j + 1;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text = &src[i..j];
                let n: i64 = text.parse().map_err(|_| {
                    Diagnostic::new(
                        format!("integer literal `{text}` out of range"),
                        Span::new(i, j),
                    )
                })?;
                out.push(Spanned {
                    token: Token::Int(n),
                    span: Span::new(i, j),
                });
                i = j;
            }
            '-' if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text = &src[i..j];
                let n: i64 = text.parse().map_err(|_| {
                    Diagnostic::new(
                        format!("integer literal `{text}` out of range"),
                        Span::new(i, j),
                    )
                })?;
                out.push(Spanned {
                    token: Token::Int(n),
                    span: Span::new(i, j),
                });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.push(Spanned {
                    token: Token::Ident(src[i..j].to_owned()),
                    span: Span::new(i, j),
                });
                i = j;
            }
            '<' if bytes.get(i + 1) == Some(&b'-') => {
                out.push(Spanned {
                    token: Token::LArrow,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Spanned {
                    token: Token::RArrow,
                    span: Span::new(i, i + 2),
                });
                i += 2;
            }
            _ => {
                let token = match c {
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    ':' => Token::Colon,
                    ';' => Token::Semi,
                    ',' => Token::Comma,
                    '=' => Token::Eq,
                    '|' => Token::Pipe,
                    '+' => Token::Plus,
                    '.' => Token::Dot,
                    '<' => Token::Lt,
                    '>' => Token::Gt,
                    other => {
                        return Err(Diagnostic::new(
                            format!("unexpected character `{other}`"),
                            Span::new(i, i + 1),
                        ))
                    }
                };
                out.push(Spanned {
                    token,
                    span: Span::new(i, i + 1),
                });
                i += 1;
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        span: Span::point(src.len()),
    });
    Ok(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// The character a `\u{hex}` escape names, read from the bytes after
/// its `\u`, and how many of those bytes it spans.
fn unicode_escape(rest: &[u8]) -> Option<(char, usize)> {
    let close = rest.iter().position(|&b| b == b'}')?;
    let hex = std::str::from_utf8(rest.strip_prefix(b"{")?.get(..close - 1)?).ok()?;
    let code = u32::from_str_radix(hex, 16).ok()?;
    Some((char::from_u32(code)?, close + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("resource \"X 1\" { }"),
            vec![
                Token::Ident("resource".into()),
                Token::Str("X 1".into()),
                Token::LBrace,
                Token::RBrace,
                Token::Eof
            ]
        );
    }

    #[test]
    fn arrows_and_operators() {
        assert_eq!(
            toks("a <- b -> c < d > e + 1"),
            vec![
                Token::Ident("a".into()),
                Token::LArrow,
                Token::Ident("b".into()),
                Token::RArrow,
                Token::Ident("c".into()),
                Token::Lt,
                Token::Ident("d".into()),
                Token::Gt,
                Token::Ident("e".into()),
                Token::Plus,
                Token::Int(1),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n /* block\n over lines */ b"),
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            toks(r#""a\"b\\c\nd""#),
            vec![Token::Str("a\"b\\c\nd".into()), Token::Eof]
        );
        // Every escape a printed (debug-formatted) literal can hold.
        let odd = "\u{1}\r\0\u{200b}é\t";
        assert_eq!(
            toks(&format!("{odd:?}")),
            vec![Token::Str(odd.into()), Token::Eof]
        );
        for bad in [
            r#""\u""#,
            r#""\u{}""#,
            r#""\u{d800}""#,
            r#""\u{1""#,
            r#""\u1}""#,
        ] {
            assert!(lex(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn negative_ints() {
        assert_eq!(toks("-42"), vec![Token::Int(-42), Token::Eof]);
    }

    #[test]
    fn errors_have_spans() {
        let err = lex("\"unterminated").unwrap_err();
        assert!(err.message().contains("unterminated"));
        let err = lex("@").unwrap_err();
        assert!(err.message().contains("unexpected character"));
        assert_eq!(err.span(), Span::new(0, 1));
    }

    #[test]
    fn unterminated_block_comment() {
        assert!(lex("/* never ends").is_err());
    }

    #[test]
    fn spans_track_positions() {
        let ts = lex("ab \"cd\"").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 2));
        assert_eq!(ts[1].span, Span::new(3, 7));
    }

    #[test]
    fn unicode_in_strings() {
        assert_eq!(
            toks("\"héllo\""),
            vec![Token::Str("héllo".into()), Token::Eof]
        );
    }
}
