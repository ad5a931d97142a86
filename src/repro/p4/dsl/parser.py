"""Recursive-descent parser: DSL source → :class:`~repro.p4.program.Program`.

The grammar mirrors P4_14's shape for the constructs the IR supports:

.. code-block:: text

    program      := decl*
    decl         := header_type | header | metadata | register
                  | action | table | parser_state | control
    header_type  := 'header_type' NAME '{' 'fields' '{' (NAME ':' NUM ';')* '}' '}'
    header       := 'header' TYPE NAME ';'
    metadata     := 'metadata' TYPE NAME ';'
    register     := 'register' NAME '{' 'width' ':' NUM ';'
                    'instance_count' ':' NUM ';' '}'
    action       := 'action' NAME '(' params? ')' '{' primitive* '}'
    table        := 'table' NAME '{' reads? actions_clause default? size? '}'
    parser_state := 'parser' NAME '{' ('extract' '(' NAME ')' ';')*
                    return_stmt '}'
    control      := 'control' ('ingress' | 'egress') '{' stmt* '}'
    stmt         := 'apply' '(' NAME ')' apply_blocks? ';'?
                  | 'if' '(' expr ')' '{' stmt* '}' ('else' '{' stmt* '}')?
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import DslSyntaxError
from repro.p4.actions import (
    Action,
    AddHeader,
    AddToField,
    Drop,
    HashFields,
    MinOf,
    ModifyField,
    NoOp,
    Primitive,
    RegisterRead,
    RegisterWrite,
    RemoveHeader,
    SendToController,
    SetEgressPort,
    SubtractFromField,
)
from repro.p4.control import Apply, ControlNode, If, Seq
from repro.p4.dsl.lexer import Token, TokenKind, tokenize
from repro.p4.expressions import (
    BinOp,
    Const,
    Expr,
    FieldRef,
    LAnd,
    LNot,
    LOr,
    ParamRef,
    RegisterSize,
    ValidExpr,
)
from repro.p4.parser_spec import ACCEPT, ParserSpec, ParserState
from repro.p4.program import (
    HeaderField,
    HeaderInstance,
    HeaderType,
    Program,
)
from repro.p4.registers import RegisterArray
from repro.p4.tables import MatchKind, Table, TableKey


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        token = self.peek()
        if token.kind is not kind or (text is not None and token.text != text):
            want = text or kind.value
            raise DslSyntaxError(
                f"expected {want!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_ident(self, text: Optional[str] = None) -> str:
        return self.expect(TokenKind.IDENT, text).text

    def at_ident(self, text: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.IDENT and token.text == text

    def expect_number(self) -> int:
        token = self.expect(TokenKind.NUMBER)
        return int(token.text, 0)

    # ------------------------------------------------------------------
    # Program

    def parse_program(self, name: str) -> Program:
        header_types: Dict[str, HeaderType] = {}
        headers: Dict[str, HeaderInstance] = {}
        registers: Dict[str, RegisterArray] = {}
        actions: Dict[str, Action] = {}
        tables: Dict[str, Table] = {}
        parser_states: Dict[str, ParserState] = {}
        parser_start: Optional[str] = None
        ingress: ControlNode = Seq([])
        egress: ControlNode = Seq([])

        while self.peek().kind is not TokenKind.EOF:
            keyword = self.expect(TokenKind.IDENT).text
            if keyword == "header_type":
                htype = self._header_type()
                header_types[htype.name] = htype
            elif keyword == "header":
                type_name = self.expect_ident()
                inst_name = self.expect_ident()
                auto_valid = False
                if self.at_ident("auto"):
                    self.advance()
                    auto_valid = True
                self.expect(TokenKind.SEMI)
                headers[inst_name] = HeaderInstance(
                    name=inst_name,
                    header_type=type_name,
                    metadata=False,
                    auto_valid=auto_valid,
                )
            elif keyword == "metadata":
                type_name = self.expect_ident()
                inst_name = self.expect_ident()
                self.expect(TokenKind.SEMI)
                headers[inst_name] = HeaderInstance(
                    name=inst_name, header_type=type_name, metadata=True
                )
            elif keyword == "register":
                register = self._register()
                registers[register.name] = register
            elif keyword == "action":
                action = self._action()
                actions[action.name] = action
            elif keyword == "table":
                table = self._table()
                tables[table.name] = table
            elif keyword == "parser":
                state = self._parser_state()
                parser_states[state.name] = state
                if parser_start is None or state.name == "start":
                    parser_start = (
                        "start" if "start" in parser_states else state.name
                    )
            elif keyword == "control":
                control_name = self.expect_ident()
                if control_name == "ingress":
                    ingress = self._block()
                elif control_name == "egress":
                    egress = self._block()
                else:
                    raise DslSyntaxError(
                        f"only 'ingress' and 'egress' controls are "
                        f"supported, got {control_name!r}",
                        self.peek().line,
                        self.peek().column,
                    )
            else:
                token = self.peek()
                raise DslSyntaxError(
                    f"unknown declaration {keyword!r}",
                    token.line,
                    token.column,
                )

        parser_spec = None
        if parser_states:
            parser_spec = ParserSpec(
                states=parser_states, start=parser_start or "start"
            )
        return Program(
            name=name,
            header_types=header_types,
            headers=headers,
            registers=registers,
            actions=actions,
            tables=tables,
            parser=parser_spec,
            ingress=ingress,
            egress=egress,
        )

    # ------------------------------------------------------------------
    # Declarations

    def _header_type(self) -> HeaderType:
        name = self.expect_ident()
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.IDENT, "fields")
        self.expect(TokenKind.LBRACE)
        fields: List[HeaderField] = []
        while self.peek().kind is not TokenKind.RBRACE:
            field_name = self.expect_ident()
            self.expect(TokenKind.COLON)
            width = self.expect_number()
            self.expect(TokenKind.SEMI)
            fields.append(HeaderField(field_name, width))
        self.expect(TokenKind.RBRACE)
        self.expect(TokenKind.RBRACE)
        return HeaderType(name=name, fields=tuple(fields))

    def _register(self) -> RegisterArray:
        name = self.expect_ident()
        self.expect(TokenKind.LBRACE)
        self.expect(TokenKind.IDENT, "width")
        self.expect(TokenKind.COLON)
        width = self.expect_number()
        self.expect(TokenKind.SEMI)
        self.expect(TokenKind.IDENT, "instance_count")
        self.expect(TokenKind.COLON)
        size = self.expect_number()
        self.expect(TokenKind.SEMI)
        self.expect(TokenKind.RBRACE)
        return RegisterArray(name=name, width=width, size=size)

    def _action(self) -> Action:
        name = self.expect_ident()
        self.expect(TokenKind.LPAREN)
        params: List[str] = []
        while self.peek().kind is not TokenKind.RPAREN:
            params.append(self.expect_ident())
            if self.peek().kind is TokenKind.COMMA:
                self.advance()
        self.expect(TokenKind.RPAREN)
        self.expect(TokenKind.LBRACE)
        primitives: List[Primitive] = []
        while self.peek().kind is not TokenKind.RBRACE:
            primitives.append(self._primitive(set(params)))
        self.expect(TokenKind.RBRACE)
        return Action(
            name=name, parameters=tuple(params), primitives=tuple(primitives)
        )

    def _primitive(self, params: set) -> Primitive:
        name = self.expect_ident()
        self.expect(TokenKind.LPAREN)

        def finish() -> None:
            self.expect(TokenKind.RPAREN)
            self.expect(TokenKind.SEMI)

        if name == "modify_field":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            src = self._expr(params)
            finish()
            return ModifyField(dst, src)
        if name == "add_to_field":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            src = self._expr(params)
            finish()
            return AddToField(dst, src)
        if name == "subtract_from_field":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            src = self._expr(params)
            finish()
            return SubtractFromField(dst, src)
        if name == "drop":
            finish()
            return Drop()
        if name == "no_op":
            finish()
            return NoOp()
        if name == "set_egress_port":
            port = self._expr(params)
            finish()
            return SetEgressPort(port)
        if name == "send_to_controller":
            reason = self.expect_number()
            finish()
            return SendToController(reason)
        if name == "register_read":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            register = self.expect_ident()
            self.expect(TokenKind.COMMA)
            index = self._expr(params)
            finish()
            return RegisterRead(dst, register, index)
        if name == "register_write":
            register = self.expect_ident()
            self.expect(TokenKind.COMMA)
            index = self._expr(params)
            self.expect(TokenKind.COMMA)
            value = self._expr(params)
            finish()
            return RegisterWrite(register, index, value)
        if name == "hash":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            algorithm = self.expect_ident()
            self.expect(TokenKind.COMMA)
            self.expect(TokenKind.LBRACE)
            inputs: List[FieldRef] = []
            while self.peek().kind is not TokenKind.RBRACE:
                inputs.append(self._field_ref())
                if self.peek().kind is TokenKind.COMMA:
                    self.advance()
            self.expect(TokenKind.RBRACE)
            self.expect(TokenKind.COMMA)
            modulo = self._expr(params)
            finish()
            return HashFields(dst, algorithm, tuple(inputs), modulo)
        if name == "min":
            dst = self._field_ref()
            self.expect(TokenKind.COMMA)
            left = self._expr(params)
            self.expect(TokenKind.COMMA)
            right = self._expr(params)
            finish()
            return MinOf(dst, left, right)
        if name == "add_header":
            header = self.expect_ident()
            finish()
            return AddHeader(header)
        if name == "remove_header":
            header = self.expect_ident()
            finish()
            return RemoveHeader(header)
        token = self.peek()
        raise DslSyntaxError(
            f"unknown primitive {name!r}", token.line, token.column
        )

    def _table(self) -> Table:
        name = self.expect_ident()
        self.expect(TokenKind.LBRACE)
        keys: List[TableKey] = []
        actions: List[str] = []
        default_action = "NoAction"
        default_args: Tuple[int, ...] = ()
        size = 1024
        while self.peek().kind is not TokenKind.RBRACE:
            clause = self.expect_ident()
            if clause == "reads":
                self.expect(TokenKind.LBRACE)
                while self.peek().kind is not TokenKind.RBRACE:
                    ref = self._field_ref()
                    self.expect(TokenKind.COLON)
                    kind_name = self.expect_ident()
                    try:
                        kind = MatchKind(kind_name)
                    except ValueError:
                        token = self.peek()
                        raise DslSyntaxError(
                            f"unknown match kind {kind_name!r}",
                            token.line,
                            token.column,
                        ) from None
                    self.expect(TokenKind.SEMI)
                    keys.append(TableKey(field=ref, kind=kind))
                self.expect(TokenKind.RBRACE)
            elif clause == "actions":
                self.expect(TokenKind.LBRACE)
                while self.peek().kind is not TokenKind.RBRACE:
                    actions.append(self.expect_ident())
                    self.expect(TokenKind.SEMI)
                self.expect(TokenKind.RBRACE)
            elif clause == "default_action":
                self.expect(TokenKind.COLON)
                default_action = self.expect_ident()
                args: List[int] = []
                if self.peek().kind is TokenKind.LPAREN:
                    self.advance()
                    while self.peek().kind is not TokenKind.RPAREN:
                        args.append(self.expect_number())
                        if self.peek().kind is TokenKind.COMMA:
                            self.advance()
                    self.expect(TokenKind.RPAREN)
                default_args = tuple(args)
                self.expect(TokenKind.SEMI)
            elif clause == "size":
                self.expect(TokenKind.COLON)
                size = self.expect_number()
                self.expect(TokenKind.SEMI)
            else:
                token = self.peek()
                raise DslSyntaxError(
                    f"unknown table clause {clause!r}",
                    token.line,
                    token.column,
                )
        self.expect(TokenKind.RBRACE)
        return Table(
            name=name,
            keys=tuple(keys),
            actions=tuple(actions),
            default_action=default_action,
            default_action_args=default_args,
            size=size,
        )

    def _parser_state(self) -> ParserState:
        name = self.expect_ident()
        self.expect(TokenKind.LBRACE)
        extracts: List[str] = []
        select: Optional[FieldRef] = None
        transitions: Dict[int, str] = {}
        default = ACCEPT
        while self.peek().kind is not TokenKind.RBRACE:
            keyword = self.expect_ident()
            if keyword == "extract":
                self.expect(TokenKind.LPAREN)
                extracts.append(self.expect_ident())
                self.expect(TokenKind.RPAREN)
                self.expect(TokenKind.SEMI)
            elif keyword == "return":
                if self.at_ident("select"):
                    self.advance()
                    self.expect(TokenKind.LPAREN)
                    select = self._field_ref()
                    self.expect(TokenKind.RPAREN)
                    self.expect(TokenKind.LBRACE)
                    while self.peek().kind is not TokenKind.RBRACE:
                        if self.at_ident("default"):
                            self.advance()
                            self.expect(TokenKind.COLON)
                            default = self.expect_ident()
                        else:
                            value = self.expect_number()
                            self.expect(TokenKind.COLON)
                            transitions[value] = self.expect_ident()
                        self.expect(TokenKind.SEMI)
                    self.expect(TokenKind.RBRACE)
                else:
                    default = self.expect_ident()
                    self.expect(TokenKind.SEMI)
            else:
                token = self.peek()
                raise DslSyntaxError(
                    f"unknown parser statement {keyword!r}",
                    token.line,
                    token.column,
                )
        self.expect(TokenKind.RBRACE)
        return ParserState(
            name=name,
            extracts=tuple(extracts),
            select=select,
            transitions=transitions,
            default=default,
        )

    # ------------------------------------------------------------------
    # Control flow

    def _block(self) -> ControlNode:
        self.expect(TokenKind.LBRACE)
        nodes: List[ControlNode] = []
        while self.peek().kind is not TokenKind.RBRACE:
            nodes.append(self._statement())
        self.expect(TokenKind.RBRACE)
        if len(nodes) == 1:
            return nodes[0]
        return Seq(nodes)

    def _statement(self) -> ControlNode:
        keyword = self.expect_ident()
        if keyword == "apply":
            self.expect(TokenKind.LPAREN)
            table = self.expect_ident()
            self.expect(TokenKind.RPAREN)
            on_hit: Optional[ControlNode] = None
            on_miss: Optional[ControlNode] = None
            if self.peek().kind is TokenKind.LBRACE:
                self.advance()
                while self.peek().kind is not TokenKind.RBRACE:
                    branch = self.expect_ident()
                    if branch == "hit":
                        on_hit = self._block()
                    elif branch == "miss":
                        on_miss = self._block()
                    else:
                        token = self.peek()
                        raise DslSyntaxError(
                            f"expected 'hit' or 'miss', got {branch!r}",
                            token.line,
                            token.column,
                        )
                self.expect(TokenKind.RBRACE)
            else:
                self.expect(TokenKind.SEMI)
            return Apply(table, on_hit, on_miss)
        if keyword == "if":
            self.expect(TokenKind.LPAREN)
            condition = self._expr(set())
            self.expect(TokenKind.RPAREN)
            then_node = self._block()
            else_node: Optional[ControlNode] = None
            if self.at_ident("else"):
                self.advance()
                else_node = self._block()
            return If(condition, then_node, else_node)
        token = self.peek()
        raise DslSyntaxError(
            f"unknown statement {keyword!r}", token.line, token.column
        )

    # ------------------------------------------------------------------
    # Expressions (precedence: or < and < not < comparison < arith)

    def _expr(self, params: set) -> Expr:
        return self._or_expr(params)

    def _or_expr(self, params: set) -> Expr:
        left = self._and_expr(params)
        while self.at_ident("or"):
            self.advance()
            right = self._and_expr(params)
            left = LOr(left, right)
        return left

    def _and_expr(self, params: set) -> Expr:
        left = self._not_expr(params)
        while self.at_ident("and"):
            self.advance()
            right = self._not_expr(params)
            left = LAnd(left, right)
        return left

    def _not_expr(self, params: set) -> Expr:
        if self.at_ident("not"):
            self.advance()
            return LNot(self._not_expr(params))
        return self._comparison(params)

    def _comparison(self, params: set) -> Expr:
        left = self._arith(params)
        token = self.peek()
        if token.kind is TokenKind.OP and token.text in (
            "==", "!=", "<", "<=", ">", ">=",
        ):
            op = self.advance().text
            right = self._arith(params)
            return BinOp(op, left, right)
        return left

    def _arith(self, params: set) -> Expr:
        left = self._primary(params)
        while True:
            token = self.peek()
            if token.kind is TokenKind.OP and token.text in (
                "+", "-", "&", "|", "^",
            ):
                op = self.advance().text
                right = self._primary(params)
                left = BinOp(op, left, right)
            else:
                return left

    def _primary(self, params: set) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            return Const(self.expect_number())
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self._expr(params)
            self.expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.IDENT:
            if token.text == "valid":
                self.advance()
                self.expect(TokenKind.LPAREN)
                header = self.expect_ident()
                self.expect(TokenKind.RPAREN)
                return ValidExpr(header)
            if token.text == "size":
                self.advance()
                self.expect(TokenKind.LPAREN)
                register = self.expect_ident()
                self.expect(TokenKind.RPAREN)
                return RegisterSize(register)
            name = self.expect_ident()
            if self.peek().kind is TokenKind.DOT:
                self.advance()
                field_name = self.expect_ident()
                return FieldRef(name, field_name)
            return ParamRef(name)
        raise DslSyntaxError(
            f"unexpected token {token.text!r} in expression",
            token.line,
            token.column,
        )

    def _field_ref(self) -> FieldRef:
        header = self.expect_ident()
        self.expect(TokenKind.DOT)
        field_name = self.expect_ident()
        return FieldRef(header, field_name)


def parse_program(source: str, name: str = "program") -> Program:
    """Parse DSL source into a validated :class:`Program`."""
    return _Parser(source).parse_program(name)
