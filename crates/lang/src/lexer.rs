//! The hand-written lexer: source text → [`Spanned`] tokens.

use crate::error::LangError;
use crate::token::{Spanned, Token};

/// Tokenises `source`.
///
/// Comments run from `//` to end of line. Identifiers are
/// `[A-Za-z_][A-Za-z0-9_]*`; integer literals are decimal, with `-`
/// handled by the parser as unary minus.
///
/// # Errors
///
/// Returns a [`LangError`] on unknown characters or malformed numbers.
pub fn lex(source: &str) -> Result<Vec<Spanned>, LangError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;

    let keyword = |word: &str| -> Option<Token> {
        Some(match word {
            "class" => Token::Class,
            "extends" => Token::Extends,
            "field" => Token::Field,
            "def" => Token::Def,
            "var" => Token::Var,
            "static" => Token::Static,
            "if" => Token::If,
            "else" => Token::Else,
            "while" => Token::While,
            "return" => Token::Return,
            "print" => Token::Print,
            "new" => Token::New,
            "null" => Token::Null,
            "this" => Token::This,
            "private" => Token::Private,
            "package" => Token::Package,
            "protected" => Token::Protected,
            "public" => Token::Public,
            _ => return None,
        })
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &source[start..i];
                let value = text.parse().map_err(|_| LangError {
                    line,
                    message: format!("integer literal `{text}` out of range"),
                })?;
                tokens.push(Spanned {
                    token: Token::Int(value),
                    line,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                let token = keyword(word).unwrap_or_else(|| Token::Ident(word.to_string()));
                tokens.push(Spanned { token, line });
            }
            _ => {
                let two = source.get(i..i + 2);
                let (token, width) = match two {
                    Some("&&") => (Token::AndAnd, 2),
                    Some("||") => (Token::OrOr, 2),
                    Some("==") => (Token::Eq, 2),
                    Some("!=") => (Token::Ne, 2),
                    Some("<=") => (Token::Le, 2),
                    Some(">=") => (Token::Ge, 2),
                    _ => {
                        let t = match c {
                            '{' => Token::LBrace,
                            '}' => Token::RBrace,
                            '(' => Token::LParen,
                            ')' => Token::RParen,
                            '[' => Token::LBracket,
                            ']' => Token::RBracket,
                            ';' => Token::Semi,
                            ',' => Token::Comma,
                            '.' => Token::Dot,
                            ':' => Token::Colon,
                            '=' => Token::Assign,
                            '+' => Token::Plus,
                            '-' => Token::Minus,
                            '*' => Token::Star,
                            '/' => Token::Slash,
                            '%' => Token::Percent,
                            '<' => Token::Lt,
                            '>' => Token::Gt,
                            '!' => Token::Bang,
                            other => {
                                return Err(LangError {
                                    line,
                                    message: format!("unexpected character `{other}`"),
                                })
                            }
                        };
                        (t, 1)
                    }
                };
                tokens.push(Spanned { token, line });
                i += width;
            }
        }
    }
    tokens.push(Spanned {
        token: Token::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo extends Bar"),
            vec![
                Token::Class,
                Token::Ident("Foo".into()),
                Token::Extends,
                Token::Ident("Bar".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_operators() {
        assert_eq!(
            kinds("x = 10 + 2 * 3;"),
            vec![
                Token::Ident("x".into()),
                Token::Assign,
                Token::Int(10),
                Token::Plus,
                Token::Int(2),
                Token::Star,
                Token::Int(3),
                Token::Semi,
                Token::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(
            kinds("a <= b == c != d >= e"),
            vec![
                Token::Ident("a".into()),
                Token::Le,
                Token::Ident("b".into()),
                Token::Eq,
                Token::Ident("c".into()),
                Token::Ne,
                Token::Ident("d".into()),
                Token::Ge,
                Token::Ident("e".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks = lex("x // a comment\ny").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn rejects_strange_characters() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn huge_literal_is_an_error() {
        assert!(lex("99999999999999999999999999").is_err());
    }
}
