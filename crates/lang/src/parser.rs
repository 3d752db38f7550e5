//! Recursive-descent parser: tokens → [`SourceProgram`].

use crate::ast::*;
use crate::error::LangError;
use crate::token::{Spanned, Token};

/// Parses a source file.
///
/// # Errors
///
/// Returns the first syntax error with its line.
pub fn parse(tokens: &[Spanned]) -> Result<SourceProgram, LangError> {
    let mut p = Parser { tokens, pos: 0 };
    p.program()
}

struct Parser<'a> {
    tokens: &'a [Spanned],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Token) -> Result<(), LangError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(LangError::new(
                self.line(),
                format!("expected `{expected}`, found `{}`", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.peek().clone() {
            Token::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(LangError::new(
                self.line(),
                format!("expected an identifier, found `{other}`"),
            )),
        }
    }

    fn visibility(&mut self) -> Vis {
        let v = match self.peek() {
            Token::Private => Vis::Private,
            Token::Package => Vis::Package,
            Token::Protected => Vis::Protected,
            Token::Public => Vis::Public,
            _ => return Vis::Private,
        };
        self.bump();
        v
    }

    fn type_name(&mut self) -> Result<TypeName, LangError> {
        let name = self.ident()?;
        let mut ty = match name.as_str() {
            "int" => TypeName::Int,
            _ => TypeName::Class(name),
        };
        while self.peek() == &Token::LBracket {
            self.bump();
            self.eat(&Token::RBracket)?;
            ty = TypeName::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn program(&mut self) -> Result<SourceProgram, LangError> {
        let mut out = SourceProgram::default();
        loop {
            match self.peek() {
                Token::Eof => break,
                Token::Class => out.classes.push(self.class_decl()?),
                Token::Def => out.funcs.push(self.func_decl()?),
                Token::Static
                | Token::Private
                | Token::Package
                | Token::Protected
                | Token::Public => out.statics.push(self.static_decl()?),
                other => {
                    return Err(LangError::new(
                        self.line(),
                        format!("expected a declaration, found `{other}`"),
                    ))
                }
            }
        }
        Ok(out)
    }

    fn class_decl(&mut self) -> Result<ClassDecl, LangError> {
        let line = self.line();
        self.eat(&Token::Class)?;
        let name = self.ident()?;
        let extends = if self.peek() == &Token::Extends {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        self.eat(&Token::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while self.peek() != &Token::RBrace {
            match self.peek() {
                Token::Def => methods.push(self.func_decl()?),
                _ => {
                    let fline = self.line();
                    let vis = self.visibility();
                    self.eat(&Token::Field)?;
                    let fname = self.ident()?;
                    self.eat(&Token::Colon)?;
                    let ty = self.type_name()?;
                    self.eat(&Token::Semi)?;
                    fields.push(FieldDecl {
                        name: fname,
                        vis,
                        ty,
                        line: fline,
                    });
                }
            }
        }
        self.eat(&Token::RBrace)?;
        Ok(ClassDecl {
            name,
            extends,
            fields,
            methods,
            line,
        })
    }

    fn func_decl(&mut self) -> Result<FuncDecl, LangError> {
        let line = self.line();
        self.eat(&Token::Def)?;
        let name = self.ident()?;
        self.eat(&Token::LParen)?;
        let mut params = Vec::new();
        while self.peek() != &Token::RParen {
            if !params.is_empty() {
                self.eat(&Token::Comma)?;
            }
            let pname = self.ident()?;
            self.eat(&Token::Colon)?;
            let ty = self.type_name()?;
            params.push((pname, ty));
        }
        self.eat(&Token::RParen)?;
        let ret = if self.peek() == &Token::Colon {
            self.bump();
            Some(self.type_name()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn static_decl(&mut self) -> Result<StaticDecl, LangError> {
        let line = self.line();
        let vis = self.visibility();
        self.eat(&Token::Static)?;
        let name = self.ident()?;
        self.eat(&Token::Colon)?;
        let ty = self.type_name()?;
        let init = if self.peek() == &Token::Assign {
            self.bump();
            let negative = if self.peek() == &Token::Minus {
                self.bump();
                true
            } else {
                false
            };
            match self.bump() {
                Token::Int(v) => Some(if negative { -v } else { v }),
                other => {
                    return Err(LangError::new(
                        line,
                        format!("static initialisers must be integer literals, found `{other}`"),
                    ))
                }
            }
        } else {
            None
        };
        self.eat(&Token::Semi)?;
        Ok(StaticDecl {
            name,
            vis,
            ty,
            init,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.eat(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Token::RBrace {
            stmts.push(self.stmt()?);
        }
        self.eat(&Token::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let line = self.line();
        match self.peek() {
            Token::Var => {
                self.bump();
                let name = self.ident()?;
                let ty = if self.peek() == &Token::Colon {
                    self.bump();
                    Some(self.type_name()?)
                } else {
                    None
                };
                self.eat(&Token::Assign)?;
                let init = self.expr()?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Var {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            Token::If => {
                self.bump();
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                let then_body = self.block()?;
                let else_body = if self.peek() == &Token::Else {
                    self.bump();
                    if self.peek() == &Token::If {
                        vec![self.stmt()?] // else-if chains
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            Token::While => {
                self.bump();
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Token::Return => {
                self.bump();
                let value = if self.peek() == &Token::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Token::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Token::Print => {
                self.bump();
                let value = self.expr()?;
                self.eat(&Token::Semi)?;
                Ok(Stmt::Print { value, line })
            }
            _ => {
                let expr = self.expr()?;
                if self.peek() == &Token::Assign {
                    self.bump();
                    let target = match expr {
                        Expr::Name(name, _) => LValue::Name(name),
                        Expr::Field { recv, name, .. } => LValue::Field { recv: *recv, name },
                        Expr::Index { arr, idx, .. } => LValue::Index {
                            arr: *arr,
                            idx: *idx,
                        },
                        other => {
                            return Err(LangError::new(
                                other.line(),
                                "this expression cannot be assigned to",
                            ))
                        }
                    };
                    let value = self.expr()?;
                    self.eat(&Token::Semi)?;
                    Ok(Stmt::Assign {
                        target,
                        value,
                        line,
                    })
                } else {
                    self.eat(&Token::Semi)?;
                    Ok(Stmt::ExprStmt { expr, line })
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.logical_or()
    }

    fn logical_or(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.logical_and()?;
        while self.peek() == &Token::OrOr {
            let line = self.line();
            self.bump();
            let rhs = self.logical_and()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.equality()?;
        while self.peek() == &Token::AndAnd {
            let line = self.line();
            self.bump();
            let rhs = self.equality()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs), line);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Token::Eq => BinOp::Eq,
                Token::Ne => BinOp::Ne,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.relational()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Token::Lt => BinOp::Lt,
                Token::Le => BinOp::Le,
                Token::Gt => BinOp::Gt,
                Token::Ge => BinOp::Ge,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Rem,
                _ => break,
            };
            let line = self.line();
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        if self.peek() == &Token::Minus {
            let line = self.line();
            self.bump();
            let inner = self.unary()?;
            return Ok(Expr::Neg(Box::new(inner), line));
        }
        if self.peek() == &Token::Bang {
            let line = self.line();
            self.bump();
            let inner = self.unary()?;
            return Ok(Expr::Not(Box::new(inner), line));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let mut expr = self.primary()?;
        loop {
            match self.peek() {
                Token::Dot => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    if self.peek() == &Token::LParen {
                        let args = self.call_args()?;
                        expr = Expr::Call {
                            recv: Some(Box::new(expr)),
                            name,
                            args,
                            line,
                        };
                    } else if name == "length" {
                        expr = Expr::Length {
                            arr: Box::new(expr),
                            line,
                        };
                    } else {
                        expr = Expr::Field {
                            recv: Box::new(expr),
                            name,
                            line,
                        };
                    }
                }
                Token::LBracket => {
                    let line = self.line();
                    self.bump();
                    let idx = self.expr()?;
                    self.eat(&Token::RBracket)?;
                    expr = Expr::Index {
                        arr: Box::new(expr),
                        idx: Box::new(idx),
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, LangError> {
        self.eat(&Token::LParen)?;
        let mut args = Vec::new();
        while self.peek() != &Token::RParen {
            if !args.is_empty() {
                self.eat(&Token::Comma)?;
            }
            args.push(self.expr()?);
        }
        self.eat(&Token::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.peek().clone() {
            Token::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, line))
            }
            Token::Null => {
                self.bump();
                Ok(Expr::Null(line))
            }
            Token::This => {
                self.bump();
                Ok(Expr::This(line))
            }
            Token::New => {
                self.bump();
                let name = self.ident()?;
                if self.peek() == &Token::LBracket {
                    // `new T[len]`, with extra `[]` pairs for nested
                    // element types: `new int[][8]` is an array of arrays.
                    self.bump();
                    // Distinguish `new int[expr]` from `new int[][expr]`.
                    let mut elem = match name.as_str() {
                        "int" => TypeName::Int,
                        _ => TypeName::Class(name.clone()),
                    };
                    while self.peek() == &Token::RBracket {
                        self.bump();
                        elem = TypeName::Array(Box::new(elem));
                        self.eat(&Token::LBracket)?;
                    }
                    let len = self.expr()?;
                    self.eat(&Token::RBracket)?;
                    return Ok(Expr::NewArray {
                        elem,
                        len: Box::new(len),
                        line,
                    });
                }
                let args = if self.peek() == &Token::LParen {
                    self.call_args()?
                } else {
                    Vec::new()
                };
                Ok(Expr::New {
                    class: name,
                    args,
                    line,
                })
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.eat(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.bump();
                if self.peek() == &Token::LParen {
                    let args = self.call_args()?;
                    Ok(Expr::Call {
                        recv: None,
                        name,
                        args,
                        line,
                    })
                } else {
                    Ok(Expr::Name(name, line))
                }
            }
            other => Err(LangError::new(
                line,
                format!("expected an expression, found `{other}`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<SourceProgram, LangError> {
        parse(&lex(src)?)
    }

    #[test]
    fn parses_a_class_with_fields_and_methods() {
        let p = parse_src(
            "class Point { field x: int; public field y: int;\n  def init(a: int, b: int) { this.x = a; this.y = b; } }",
        )
        .unwrap();
        assert_eq!(p.classes.len(), 1);
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.fields[0].vis, Vis::Private);
        assert_eq!(c.fields[1].vis, Vis::Public);
        assert_eq!(c.methods.len(), 1);
        assert_eq!(c.methods[0].params.len(), 2);
    }

    #[test]
    fn parses_precedence_correctly() {
        let p = parse_src("def main(input: int[]) { print 1 + 2 * 3 < 10; }").unwrap();
        let Stmt::Print { value, .. } = &p.funcs[0].body[0] else {
            panic!("print");
        };
        // (1 + (2*3)) < 10
        let Expr::Binary {
            op: BinOp::Lt, lhs, ..
        } = value
        else {
            panic!("topmost is <, got {value:?}");
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = lhs.as_ref()
        else {
            panic!("lhs is +");
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_statements_and_lvalues() {
        let p = parse_src(
            "def main(input: int[]) { var a: int[] = new int[4]; a[0] = 1; var p: P = new P(2); p.f = a[0]; while (a[0] < 5) { a[0] = a[0] + 1; } if (a[0] == 5) { print 1; } else { print 0; } return; }",
        )
        .unwrap();
        assert_eq!(p.funcs[0].body.len(), 7);
        assert!(matches!(
            p.funcs[0].body[1],
            Stmt::Assign {
                target: LValue::Index { .. },
                ..
            }
        ));
        assert!(matches!(
            p.funcs[0].body[3],
            Stmt::Assign {
                target: LValue::Field { .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_calls_news_and_length() {
        let p = parse_src(
            "def main(input: int[]) { var v: V = new V; v.add(input.length); helper(1, 2); }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(
            &body[1],
            Stmt::ExprStmt {
                expr: Expr::Call { recv: Some(_), .. },
                ..
            }
        ));
        assert!(matches!(
            &body[2],
            Stmt::ExprStmt {
                expr: Expr::Call { recv: None, .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_statics_and_else_if() {
        let p = parse_src(
            "private static total: int = -3;\npublic static cache: Cache;\ndef main(input: int[]) { if (1) { } else if (2) { } else { print 3; } }",
        )
        .unwrap();
        assert_eq!(p.statics.len(), 2);
        assert_eq!(p.statics[0].init, Some(-3));
        assert_eq!(p.statics[1].init, None);
        assert!(matches!(p.statics[1].ty, TypeName::Class(_)));
    }

    #[test]
    fn rejects_assigning_to_a_call() {
        let err = parse_src("def main(input: int[]) { f() = 3; }").unwrap_err();
        assert!(err.message.contains("cannot be assigned"));
    }

    #[test]
    fn error_reports_line() {
        let err = parse_src("def main(input: int[]) {\n  var x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
