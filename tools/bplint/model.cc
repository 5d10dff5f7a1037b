#include "model.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <sstream>

namespace bplint {

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

int
lineOf(const std::string &text, std::size_t pos)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(),
                              text.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(pos, text.size())),
                              '\n'));
}

std::vector<std::string>
identTokens(const std::string &s)
{
    std::vector<std::string> toks;
    std::size_t i = 0;
    while (i < s.size()) {
        if (isIdentChar(s[i]) &&
            !std::isdigit(static_cast<unsigned char>(s[i]))) {
            std::size_t b = i;
            while (i < s.size() && isIdentChar(s[i]))
                ++i;
            toks.push_back(s.substr(b, i - b));
        } else {
            ++i;
        }
    }
    return toks;
}

bool
hasToken(const std::string &s, const std::string &tok)
{
    std::size_t pos = 0;
    while ((pos = s.find(tok, pos)) != std::string::npos) {
        const bool lb = pos == 0 || !isIdentChar(s[pos - 1]);
        const bool rb = pos + tok.size() >= s.size() ||
                        !isIdentChar(s[pos + tok.size()]);
        if (lb && rb)
            return true;
        pos += tok.size();
    }
    return false;
}

bool
Suppressions::allows(const std::string &rule, int line) const
{
    if (fileRules.count(rule) || fileRules.count("*"))
        return true;
    for (int l : {line, line - 1}) {
        auto it = lineRules.find(l);
        if (it != lineRules.end() &&
            (it->second.count(rule) || it->second.count("*"))) {
            return true;
        }
    }
    return false;
}

namespace {

/** Parse "allow(rule)" / "allow-file(rule)" directives in a comment. */
void
harvestDirectives(const std::string &comment, int line, Suppressions &supp)
{
    std::size_t pos = 0;
    while ((pos = comment.find("bplint:", pos)) != std::string::npos) {
        pos += 7;
        while (pos < comment.size() &&
               std::isspace(static_cast<unsigned char>(comment[pos]))) {
            ++pos;
        }
        bool file_scope = false;
        if (comment.compare(pos, 11, "allow-file(") == 0) {
            file_scope = true;
            pos += 11;
        } else if (comment.compare(pos, 6, "allow(") == 0) {
            pos += 6;
        } else {
            continue;
        }
        const std::size_t close = comment.find(')', pos);
        if (close == std::string::npos)
            return;
        std::string rule = comment.substr(pos, close - pos);
        rule.erase(std::remove_if(rule.begin(), rule.end(),
                                  [](char c) {
                                      return std::isspace(
                                          static_cast<unsigned char>(c));
                                  }),
                   rule.end());
        if (file_scope)
            supp.fileRules.insert(rule);
        else
            supp.lineRules[line].insert(rule);
        pos = close + 1;
    }
}

struct StrippedFile {
    std::string text;
    Suppressions supp;
    std::vector<StringLit> strings;
};

/** One pass: blank comments/strings, harvest directives + literals. */
StrippedFile
stripAndHarvest(const std::string &text)
{
    StrippedFile out;
    out.text.reserve(text.size());
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    int line = 1;
    std::string comment;
    int comment_line = 1;
    std::string raw_delim;
    std::string lit;
    std::size_t lit_pos = 0;

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                comment.clear();
                comment_line = line;
                out.text += "  ";
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                comment.clear();
                comment_line = line;
                out.text += "  ";
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || !isIdentChar(text[i - 1]))) {
                // Raw string literal R"delim( ... )delim"
                std::size_t open = text.find('(', i + 2);
                if (open == std::string::npos) {
                    out.text += c;
                    break;
                }
                raw_delim.assign(1, ')');
                raw_delim.append(text, i + 2, open - (i + 2));
                raw_delim += '"';
                out.text += "  ";
                out.text.append(open - (i + 2), ' ');
                i = open;
                out.text += ' ';
                st = St::Raw;
                lit.clear();
                lit_pos = i;
            } else if (c == '"') {
                st = St::Str;
                out.text += ' ';
                lit.clear();
                lit_pos = i;
            } else if (c == '\'') {
                st = St::Chr;
                out.text += ' ';
            } else {
                out.text += c;
            }
            break;
        case St::Line:
            if (c == '\n') {
                harvestDirectives(comment, comment_line, out.supp);
                st = St::Code;
                out.text += '\n';
            } else {
                comment += c;
                out.text += ' ';
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                harvestDirectives(comment, comment_line, out.supp);
                st = St::Code;
                out.text += "  ";
                ++i;
            } else {
                comment += c;
                out.text += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Str:
            if (c == '\\' && n != '\0') {
                out.text += "  ";
                lit += c;
                lit += n;
                ++i;
            } else if (c == '"') {
                st = St::Code;
                out.text += ' ';
                out.strings.push_back({lit_pos, lit});
            } else {
                out.text += c == '\n' ? '\n' : ' ';
                lit += c;
            }
            break;
        case St::Chr:
            if (c == '\\' && n != '\0') {
                out.text += "  ";
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                out.text += ' ';
            } else {
                out.text += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Raw:
            if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
                out.text.append(raw_delim.size(), ' ');
                i += raw_delim.size() - 1;
                st = St::Code;
                out.strings.push_back({lit_pos, lit});
            } else {
                out.text += c == '\n' ? '\n' : ' ';
                lit += c;
            }
            break;
        }
        if (c == '\n')
            ++line;
    }
    if (st == St::Line || st == St::Block)
        harvestDirectives(comment, comment_line, out.supp);
    return out;
}

/** Offset one past the '}' matching the '{' at `open`. */
std::size_t
matchBrace(const std::string &s, std::size_t open)
{
    int depth = 1;
    std::size_t j = open + 1;
    for (; j < s.size() && depth > 0; ++j) {
        if (s[j] == '{')
            ++depth;
        else if (s[j] == '}')
            --depth;
    }
    return j;
}

/** Offset of the char matching `openCh` at `open` (e.g. parens). */
std::size_t
matchPair(const std::string &s, std::size_t open, char openCh, char closeCh)
{
    int depth = 1;
    std::size_t j = open + 1;
    for (; j < s.size(); ++j) {
        if (s[j] == openCh)
            ++depth;
        else if (s[j] == closeCh && --depth == 0)
            return j;
    }
    return std::string::npos;
}

std::size_t
skipWs(const std::string &s, std::size_t i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
    }
    return i;
}

// ---------------------------------------------------------------------
// Head classification (what precedes a '{' or a decl ';')
// ---------------------------------------------------------------------

struct Head {
    enum class Kind { Namespace, AnonNamespace, Function, Class, Other };
    Kind kind = Kind::Other;
    std::string name, ret, params, className;
    bool isStatic = false;
    bool isConst = false;
};

const std::set<std::string> &
typeQualifiers()
{
    static const std::set<std::string> q = {
        "public",   "private",   "protected", "const",   "static",
        "mutable",  "constexpr", "inline",    "virtual", "volatile",
        "thread_local", "std",   "unsigned",  "signed",  "explicit",
        "friend",   "typename",  "template",  "struct",  "class",
        "enum",     "nodiscard", "maybe_unused", "extern"};
    return q;
}

Head
classifyHead(const std::string &raw)
{
    Head h;
    std::string head = raw;
    // Drop preprocessor lines that may precede the definition.
    std::istringstream is(head);
    std::string cleaned, ln;
    while (std::getline(is, ln)) {
        std::size_t f = ln.find_first_not_of(" \t");
        if (f != std::string::npos && ln[f] == '#')
            continue;
        cleaned += ln + "\n";
    }
    head = cleaned;

    const auto toks = identTokens(head);
    if (toks.empty())
        return h;
    if (toks.front() == "namespace") {
        h.kind = toks.size() == 1 ? Head::Kind::AnonNamespace
                                  : Head::Kind::Namespace;
        return h;
    }
    static const std::set<std::string> control = {
        "if", "for", "while", "switch", "catch", "do", "else", "return"};
    static const std::set<std::string> aggregate = {"class", "struct",
                                                    "union"};
    for (const auto &t : toks) {
        if (control.count(t))
            return h;
    }
    // class/struct head: name follows the last class/struct keyword.
    for (std::size_t t = toks.size(); t-- > 0;) {
        if (aggregate.count(toks[t])) {
            if (t + 1 < toks.size()) {
                h.kind = Head::Kind::Class;
                h.className = toks[t + 1];
            }
            return h;
        }
    }
    if (toks.front() == "enum" || toks.front() == "typedef" ||
        toks.front() == "using") {
        return h;
    }
    // '=' at paren depth 0 → initializer / lambda assignment.
    int depth = 0;
    for (std::size_t i = 0; i < head.size(); ++i) {
        if (head[i] == '(')
            ++depth;
        else if (head[i] == ')')
            --depth;
        else if (head[i] == '=' && depth == 0 &&
                 (i + 1 >= head.size() || head[i + 1] != '=')) {
            return h;
        }
    }
    const std::size_t close = head.rfind(')');
    if (close == std::string::npos)
        return h;
    // Only cv/ref/noexcept qualifiers may follow the parameter list.
    static const std::set<std::string> quals = {"const", "noexcept",
                                                "override", "final"};
    for (const auto &t : identTokens(head.substr(close + 1))) {
        if (!quals.count(t))
            return h;
        if (t == "const")
            h.isConst = true;
    }
    // Match the '(' that opens the parameter list.
    int bal = 0;
    std::size_t open = std::string::npos;
    for (std::size_t i = close + 1; i-- > 0;) {
        if (head[i] == ')')
            ++bal;
        else if (head[i] == '(' && --bal == 0) {
            open = i;
            break;
        }
    }
    if (open == std::string::npos)
        return h;
    std::size_t e = open;
    while (e > 0 && std::isspace(static_cast<unsigned char>(head[e - 1])))
        --e;
    std::size_t b = e;
    while (b > 0 && (isIdentChar(head[b - 1]) || head[b - 1] == ':' ||
                     head[b - 1] == '~')) {
        --b;
    }
    if (b == e)
        return h;
    h.kind = Head::Kind::Function;
    h.name = head.substr(b, e - b);
    h.ret = head.substr(0, b);
    h.params = head.substr(open + 1, close - open - 1);
    for (const auto &t : identTokens(h.ret)) {
        if (t == "static")
            h.isStatic = true;
    }
    return h;
}

/** First return-type token that is not a qualifier ("" if none). */
std::string
firstTypeToken(const std::string &ret)
{
    for (const auto &t : identTokens(ret)) {
        if (!typeQualifiers().count(t))
            return t;
    }
    return "";
}

/** Record a method/function declaration head into a fact table. */
void
recordFnFact(const Head &h, std::map<std::string, MethodFact> &table)
{
    if (h.name.empty() || h.name.find("operator") != std::string::npos)
        return;
    MethodFact mf;
    mf.retType = firstTypeToken(h.ret);
    mf.isConst = h.isConst;
    mf.returnsIoStatus = hasToken(h.ret, "IoStatus");
    mf.params = h.params;
    auto it = table.find(h.name);
    // A declaration seen first wins; definitions only fill gaps.
    if (it == table.end())
        table[h.name] = mf;
}

/** Harvest one class-scope statement (no braces) as a member fact. */
void
harvestClassMember(const std::string &stmtRaw, const std::string &className,
                   ClassFact &cf)
{
    // Truncate at a default-member-initializer '=' (depth 0).
    std::string stmt = stmtRaw;
    int depth = 0;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
        if (stmt[i] == '(' || stmt[i] == '<')
            ++depth;
        else if (stmt[i] == ')' || stmt[i] == '>')
            --depth;
        else if (stmt[i] == '=' && depth <= 0 &&
                 (i + 1 >= stmt.size() || stmt[i + 1] != '=') &&
                 (i == 0 || (stmt[i - 1] != '=' && stmt[i - 1] != '!' &&
                             stmt[i - 1] != '<' && stmt[i - 1] != '>'))) {
            stmt = stmt.substr(0, i);
            break;
        }
    }
    const auto toks = identTokens(stmt);
    if (toks.empty() || toks.front() == "using" ||
        toks.front() == "typedef" || toks.front() == "friend") {
        return;
    }
    // Method declaration? Mirrors classifyHead's parameter-list scan.
    const Head h = classifyHead(stmt + "\n");
    if (h.kind == Head::Kind::Function) {
        std::string bare = h.name;
        const std::size_t q = bare.rfind("::");
        if (q != std::string::npos)
            bare = bare.substr(q + 2);
        if (bare != className && !bare.empty() && bare[0] != '~')
            recordFnFact(Head{h.kind, bare, h.ret, h.params, "",
                              h.isStatic, h.isConst},
                         cf.methods);
        return;
    }
    // Member variable: last ident is the name, first non-qualifier
    // ident is the type. Skip statements with parens (fn pointers,
    // std::function members) — their "type" would be garbage.
    if (stmt.find('(') != std::string::npos)
        return;
    std::string type;
    for (const auto &t : toks) {
        if (!typeQualifiers().count(t)) {
            type = t;
            break;
        }
    }
    if (type.empty() || toks.size() < 2)
        return;
    const std::string name = toks.back();
    if (name == type)
        return;
    cf.memberTypes.emplace(name, type);
}

/**
 * Single declaration-scanner pass over the stripped text: harvests
 * namespace-scope function definitions (FuncFacts), class facts
 * (methods + member types, including inline definitions), and
 * namespace-scope function declarations.
 */
void
scanDeclarations(const std::string &s, TuModel &tu)
{
    struct Ent {
        Head::Kind kind;
        std::string className;
    };
    std::vector<Ent> scopes;
    std::size_t stmt_start = 0;
    int anon_depth = 0;

    auto atNsScope = [&]() {
        return std::all_of(scopes.begin(), scopes.end(), [](const Ent &e) {
            return e.kind == Head::Kind::Namespace ||
                   e.kind == Head::Kind::AnonNamespace;
        });
    };
    auto inClass = [&]() {
        return !scopes.empty() && scopes.back().kind == Head::Kind::Class;
    };

    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == ';') {
            const std::string stmt = s.substr(stmt_start, i - stmt_start);
            if (atNsScope()) {
                // Namespace-scope declaration: harvest call/result
                // facts for prototypes (headers mostly).
                const Head h = classifyHead(stmt + "\n");
                if (h.kind == Head::Kind::Function &&
                    h.name.find("::") == std::string::npos) {
                    recordFnFact(h, tu.freeFns);
                }
                stmt_start = i + 1;
            } else if (inClass()) {
                harvestClassMember(stmt, scopes.back().className,
                                   tu.classes[scopes.back().className]);
                stmt_start = i + 1;
            }
            continue;
        }
        if (c == '}') {
            if (!scopes.empty()) {
                if (scopes.back().kind == Head::Kind::AnonNamespace)
                    --anon_depth;
                scopes.pop_back();
            }
            stmt_start = i + 1;
            continue;
        }
        if (c != '{')
            continue;

        const std::string headText = s.substr(stmt_start, i - stmt_start);
        if (atNsScope()) {
            const Head h = classifyHead(headText);
            if (h.kind == Head::Kind::Function) {
                const std::size_t bodyEnd = matchBrace(s, i);
                FuncFact f;
                f.name = h.name;
                const std::size_t q = h.name.rfind("::");
                if (q != std::string::npos) {
                    f.className = h.name.substr(0, q);
                    const std::size_t q2 = f.className.rfind("::");
                    if (q2 != std::string::npos)
                        f.className = f.className.substr(q2 + 2);
                    f.bareName = h.name.substr(q + 2);
                } else {
                    f.bareName = h.name;
                }
                f.ret = h.ret;
                f.params = h.params;
                f.bodyBegin = i + 1;
                f.bodyEnd = bodyEnd > i + 1 ? bodyEnd - 1 : i + 1;
                const std::size_t first =
                    headText.find_first_not_of(" \t\n");
                f.line = lineOf(
                    s, stmt_start + (first == std::string::npos ? 0 : first));
                f.anonOrStatic = anon_depth > 0 || h.isStatic;
                // Definitions feed the cross-TU fact tables too.
                if (!f.bareName.empty() && f.bareName[0] != '~') {
                    Head fact{Head::Kind::Function, f.bareName, f.ret,
                              f.params, "", h.isStatic, h.isConst};
                    if (f.className.empty())
                        recordFnFact(fact, tu.freeFns);
                    else if (f.bareName != f.className)
                        recordFnFact(fact,
                                     tu.classes[f.className].methods);
                }
                tu.funcs.push_back(std::move(f));
                i = bodyEnd > 0 ? bodyEnd - 1 : i;
                stmt_start = i + 1;
                continue;
            }
            if (h.kind == Head::Kind::Class) {
                scopes.push_back({h.kind, h.className});
                (void)tu.classes[h.className];
                stmt_start = i + 1;
                continue;
            }
            if (h.kind == Head::Kind::AnonNamespace)
                ++anon_depth;
            scopes.push_back({h.kind, ""});
            stmt_start = i + 1;
            continue;
        }
        if (inClass()) {
            const Head h = classifyHead(headText);
            if (h.kind == Head::Kind::Class) {
                scopes.push_back({h.kind, h.className});
                (void)tu.classes[h.className];
                stmt_start = i + 1;
                continue;
            }
            if (h.kind == Head::Kind::Function) {
                // Inline method definition: record, skip the body.
                std::string bare = h.name;
                const std::size_t q = bare.rfind("::");
                if (q != std::string::npos)
                    bare = bare.substr(q + 2);
                if (bare != scopes.back().className && !bare.empty() &&
                    bare[0] != '~') {
                    recordFnFact(Head{h.kind, bare, h.ret, h.params, "",
                                      h.isStatic, h.isConst},
                                 tu.classes[scopes.back().className]
                                     .methods);
                }
                i = matchBrace(s, i) - 1;
                stmt_start = i + 1;
                continue;
            }
            // Brace-initialized member / nested enum: skip the braces.
            harvestClassMember(headText, scopes.back().className,
                               tu.classes[scopes.back().className]);
            i = matchBrace(s, i) - 1;
            stmt_start = i + 1;
            continue;
        }
        // Inside some other scope (extern "C", function bodies never
        // reach here since they are skipped whole): track depth only.
        scopes.push_back({Head::Kind::Other, ""});
        stmt_start = i + 1;
    }
}

// ---------------------------------------------------------------------
// Scope tree / includes / env reads / lambdas / kernel regions
// ---------------------------------------------------------------------

void
buildScopeTree(const std::string &s, TuModel &tu)
{
    tu.scopes.push_back({0, s.size(), -1});
    std::vector<int> stack = {0};
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '{') {
            Scope sc;
            sc.begin = i;
            sc.end = s.size();
            sc.parent = stack.back();
            tu.scopes.push_back(sc);
            stack.push_back(static_cast<int>(tu.scopes.size()) - 1);
        } else if (s[i] == '}') {
            if (stack.size() > 1) {
                tu.scopes[static_cast<std::size_t>(stack.back())].end =
                    i + 1;
                stack.pop_back();
            }
        }
    }
}

void
scanIncludes(const std::string &original, TuModel &tu)
{
    std::istringstream is(original);
    std::string ln;
    int line = 0;
    while (std::getline(is, ln)) {
        ++line;
        std::size_t h = ln.find_first_not_of(" \t");
        if (h == std::string::npos || ln[h] != '#')
            continue;
        const std::size_t inc = ln.find("include", h);
        if (inc == std::string::npos)
            continue;
        const std::size_t q1 = ln.find('"', inc);
        if (q1 == std::string::npos)
            continue;
        const std::size_t q2 = ln.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        tu.includes.push_back({ln.substr(q1 + 1, q2 - q1 - 1), line});
    }
}

void
scanEnvReads(const std::string &s, TuModel &tu)
{
    static const char *readers[] = {"envInt", "envString", "getenv"};
    for (const char *reader : readers) {
        std::size_t pos = 0;
        const std::size_t len = std::string(reader).size();
        while ((pos = s.find(reader, pos)) != std::string::npos) {
            const std::size_t b = pos;
            pos += len;
            const bool lb = b == 0 || !isIdentChar(s[b - 1]);
            const bool rb = b + len >= s.size() || !isIdentChar(s[b + len]);
            if (!lb || !rb)
                continue;
            const std::size_t lp = skipWs(s, b + len);
            if (lp >= s.size() || s[lp] != '(')
                continue;
            const std::size_t rp = matchPair(s, lp, '(', ')');
            if (rp == std::string::npos)
                continue;
            // First string literal inside the call names the knob.
            for (const StringLit &lit : tu.strings) {
                if (lit.pos <= lp)
                    continue;
                if (lit.pos >= rp)
                    break;
                if (lit.text.rfind("BERTPROF_", 0) == 0) {
                    std::size_t e = 0;
                    while (e < lit.text.size() &&
                           (std::isupper(static_cast<unsigned char>(
                                lit.text[e])) ||
                            std::isdigit(static_cast<unsigned char>(
                                lit.text[e])) ||
                            lit.text[e] == '_')) {
                        ++e;
                    }
                    tu.envReads.push_back(
                        {lit.text.substr(0, e), reader, lineOf(s, b)});
                }
                break;
            }
        }
    }
}

/** Parse the lambda starting at its '[' ; npos fields on failure. */
bool
parseLambda(const std::string &s, std::size_t lb, LambdaInfo &out)
{
    const std::size_t rb = matchPair(s, lb, '[', ']');
    if (rb == std::string::npos)
        return false;
    // Split capture items on top-level commas.
    std::vector<std::string> items;
    {
        int depth = 0;
        std::size_t start = lb + 1;
        for (std::size_t i = lb + 1; i <= rb; ++i) {
            const char c = s[i];
            if (c == '(' || c == '{' || c == '[')
                ++depth;
            else if (c == ')' || c == '}')
                --depth;
            else if (c == ']' && i != rb)
                --depth;
            if ((c == ',' && depth == 0) || i == rb) {
                items.push_back(s.substr(start, i - start));
                start = i + 1;
            }
        }
    }
    for (std::string item : items) {
        item.erase(std::remove_if(item.begin(), item.end(),
                                  [](char c) {
                                      return std::isspace(
                                          static_cast<unsigned char>(c));
                                  }),
                   item.end());
        if (item.empty())
            continue;
        // Init-captures keep only the introduced name.
        const std::size_t eq = item.find('=');
        if (eq != std::string::npos && item != "=")
            item = item.substr(0, eq);
        if (item == "&") {
            out.defaultRef = true;
        } else if (item == "=") {
            out.defaultValue = true;
        } else if (item == "this" || item == "*this") {
            out.capturesThis = true;
        } else if (!item.empty() && item[0] == '&') {
            out.refCaptures.insert(item.substr(1));
        } else {
            out.valueCaptures.insert(item);
        }
    }
    // Optional parameter list.
    std::size_t i = skipWs(s, rb + 1);
    if (i < s.size() && s[i] == '(') {
        const std::size_t rp = matchPair(s, i, '(', ')');
        if (rp == std::string::npos)
            return false;
        const std::string params = s.substr(i + 1, rp - i - 1);
        int depth = 0;
        std::size_t start = 0;
        for (std::size_t j = 0; j <= params.size(); ++j) {
            const char c = j < params.size() ? params[j] : ',';
            if (c == '(' || c == '<' || c == '[')
                ++depth;
            else if (c == ')' || c == '>' || c == ']')
                --depth;
            if (c == ',' && depth <= 0) {
                const auto toks =
                    identTokens(params.substr(start, j - start));
                if (!toks.empty())
                    out.params.insert(toks.back());
                start = j + 1;
            }
        }
        i = rp + 1;
    }
    // Skip specifiers / trailing return type up to the body brace.
    const std::size_t body = s.find('{', i);
    if (body == std::string::npos)
        return false;
    out.bodyBegin = body + 1;
    const std::size_t end = matchBrace(s, body);
    out.bodyEnd = end > body + 1 ? end - 1 : body + 1;
    out.line = lineOf(s, lb);
    return true;
}

void
scanParallelRegions(const std::string &s, TuModel &tu)
{
    static const char *callees[] = {"parallelFor2d", "parallelForChunks",
                                    "parallelFor"};
    std::set<std::size_t> seen; // parallelFor is a prefix of the others
    for (const char *callee : callees) {
        const std::size_t len = std::string(callee).size();
        std::size_t pos = 0;
        while ((pos = s.find(callee, pos)) != std::string::npos) {
            const std::size_t b = pos;
            pos += len;
            const bool lb = b == 0 || !isIdentChar(s[b - 1]);
            const bool rb = b + len >= s.size() || !isIdentChar(s[b + len]);
            if (!lb || !rb || seen.count(b))
                continue;
            seen.insert(b);
            const std::size_t lbr = s.find('[', b);
            if (lbr == std::string::npos)
                continue;
            ParallelRegion region;
            region.callee = callee;
            if (parseLambda(s, lbr, region.lambda))
                tu.parallelRegions.push_back(std::move(region));
        }
    }
}

void
scanKernelRegions(const std::string &s, TuModel &tu)
{
    std::size_t pos = 0;
    while ((pos = s.find("ScopedKernel", pos)) != std::string::npos) {
        const std::size_t b = pos;
        pos += 12;
        const bool lb = b == 0 || !isIdentChar(s[b - 1]);
        const bool rb = b + 12 >= s.size() || !isIdentChar(s[b + 12]);
        if (!lb || !rb)
            continue;
        // Declaration form only: `ScopedKernel name(...);` — skip
        // qualified mentions (ScopedKernel::..., ~ScopedKernel) and
        // parameter declarations (`ScopedKernel &k`).
        std::size_t i = skipWs(s, b + 12);
        if (i >= s.size() || !isIdentChar(s[i]) || (b > 0 && s[b - 1] == '~'))
            continue;
        while (i < s.size() && isIdentChar(s[i]))
            ++i;
        i = skipWs(s, i);
        if (i >= s.size() || s[i] != '(')
            continue;
        const std::size_t rp = matchPair(s, i, '(', ')');
        if (rp == std::string::npos)
            continue;
        const std::size_t semi = s.find(';', rp);
        if (semi == std::string::npos)
            continue;
        KernelRegion region;
        region.begin = semi + 1;
        region.end = tu.enclosingScopeEnd(b);
        region.line = lineOf(s, b);
        tu.kernelRegions.push_back(region);
    }
}

} // namespace

int
TuModel::innermostScope(std::size_t pos) const
{
    int best = 0;
    std::size_t bestSize = stripped.size() + 1;
    for (std::size_t i = 1; i < scopes.size(); ++i) {
        const Scope &sc = scopes[i];
        if (sc.begin < pos && pos < sc.end && sc.end - sc.begin < bestSize) {
            best = static_cast<int>(i);
            bestSize = sc.end - sc.begin;
        }
    }
    return best;
}

std::size_t
TuModel::enclosingScopeEnd(std::size_t pos) const
{
    const int sc = innermostScope(pos);
    return scopes[static_cast<std::size_t>(sc)].end;
}

TuModel
buildTuModel(const std::string &path, const std::string &text)
{
    TuModel tu;
    tu.path = path;
    tu.original = text;
    StrippedFile f = stripAndHarvest(text);
    tu.stripped = std::move(f.text);
    tu.supp = std::move(f.supp);
    tu.strings = std::move(f.strings);
    buildScopeTree(tu.stripped, tu);
    scanDeclarations(tu.stripped, tu);
    scanIncludes(tu.original, tu);
    scanEnvReads(tu.stripped, tu);
    scanParallelRegions(tu.stripped, tu);
    scanKernelRegions(tu.stripped, tu);
    return tu;
}

std::string
srcRelative(const std::string &path)
{
    const std::size_t sp = path.rfind("src/");
    if (sp == std::string::npos)
        return "";
    return path.substr(sp + 4);
}

const MethodFact *
ProjectModel::method(const std::string &type,
                     const std::string &methodName) const
{
    const auto ci = classes.find(type);
    if (ci == classes.end())
        return nullptr;
    const auto mi = ci->second.methods.find(methodName);
    return mi == ci->second.methods.end() ? nullptr : &mi->second;
}

std::set<std::string>
ProjectModel::reachable(const std::string &node) const
{
    std::set<std::string> seen;
    std::vector<std::string> work = {node};
    while (!work.empty()) {
        const std::string cur = work.back();
        work.pop_back();
        const auto it = includeGraph.find(cur);
        if (it == includeGraph.end())
            continue;
        for (const std::string &next : it->second) {
            if (next != node && seen.insert(next).second)
                work.push_back(next);
        }
    }
    return seen;
}

std::vector<std::vector<std::string>>
ProjectModel::findIncludeCycles() const
{
    std::vector<std::vector<std::string>> cycles;
    std::set<std::string> reported; // canonical cycle keys
    std::map<std::string, int> color; // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;

    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            color[node] = 1;
            stack.push_back(node);
            const auto it = includeGraph.find(node);
            if (it != includeGraph.end()) {
                for (const std::string &next : it->second) {
                    const int c = color.count(next) ? color[next] : 0;
                    if (c == 0) {
                        dfs(next);
                    } else if (c == 1) {
                        // Found a back edge: extract the cycle.
                        auto at = std::find(stack.begin(), stack.end(),
                                            next);
                        std::vector<std::string> cyc(at, stack.end());
                        // Canonicalize: rotate smallest name first.
                        auto mn =
                            std::min_element(cyc.begin(), cyc.end());
                        std::rotate(cyc.begin(), mn, cyc.end());
                        std::string key;
                        for (const auto &n : cyc)
                            key += n + "|";
                        if (reported.insert(key).second)
                            cycles.push_back(std::move(cyc));
                    }
                }
            }
            stack.pop_back();
            color[node] = 2;
        };

    for (const auto &kv : includeGraph) {
        if (!color.count(kv.first) || color[kv.first] == 0)
            dfs(kv.first);
    }
    return cycles;
}

ProjectModel
buildProjectModel(const std::vector<SourceFile> &files)
{
    ProjectModel pm;
    pm.tus.reserve(files.size());
    for (const SourceFile &f : files)
        pm.tus.push_back(buildTuModel(f.path, f.text));

    for (const TuModel &tu : pm.tus) {
        for (const auto &kv : tu.classes) {
            ClassFact &dst = pm.classes[kv.first];
            for (const auto &m : kv.second.methods)
                dst.methods.emplace(m.first, m.second);
            for (const auto &v : kv.second.memberTypes)
                dst.memberTypes.emplace(v.first, v.second);
        }
        for (const auto &kv : tu.freeFns)
            pm.freeFns.emplace(kv.first, kv.second);

        const std::string node = srcRelative(tu.path);
        if (node.empty())
            continue;
        pm.nodePath[node] = tu.path;
        auto &edges = pm.includeGraph[node];
        for (const IncludeEdge &inc : tu.includes) {
            if (inc.target.find('/') == std::string::npos)
                continue;
            if (std::find(edges.begin(), edges.end(), inc.target) ==
                edges.end()) {
                edges.push_back(inc.target);
            }
        }
    }
    return pm;
}

} // namespace bplint
