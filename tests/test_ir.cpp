/**
 * @file
 * Unit tests for the TinyCIL data structures: type interning, layout
 * (including fat-pointer sizes), builder, printer, and verifier.
 */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/module.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace stos::ir {
namespace {

TEST(TypeTable, InterningIsStable)
{
    TypeTable tt;
    EXPECT_EQ(tt.u8(), tt.u8());
    EXPECT_EQ(tt.intTy(16, true), tt.i16());
    EXPECT_NE(tt.u8(), tt.i8());
    EXPECT_NE(tt.u16(), tt.u32());
    TypeId p1 = tt.ptrTy(tt.u8());
    TypeId p2 = tt.ptrTy(tt.u8());
    EXPECT_EQ(p1, p2);
    EXPECT_NE(p1, tt.ptrTy(tt.u16()));
}

TEST(TypeTable, HeldReferencesSurviveInterning)
{
    // Lowering holds `const Type &` across calls that intern new
    // types (e.g. coerce()); growing the table must not move them.
    TypeTable tt;
    TypeId p = tt.ptrTy(tt.u16());
    const Type &held = tt.get(p);
    const Type *addr = &held;
    for (uint32_t n = 1; n <= 1000; ++n)
        tt.arrayTy(tt.u8(), n);
    EXPECT_EQ(&tt.get(p), addr);
    EXPECT_EQ(held.kind, TypeKind::Ptr);
    EXPECT_EQ(held.pointee, tt.u16());
}

TEST(TypeTable, PtrKindsAreDistinctTypes)
{
    TypeTable tt;
    TypeId pu = tt.ptrTy(tt.u8(), PtrKind::Unchecked);
    TypeId ps = tt.ptrTy(tt.u8(), PtrKind::Safe);
    TypeId pq = tt.ptrTy(tt.u8(), PtrKind::Seq);
    EXPECT_NE(pu, ps);
    EXPECT_NE(ps, pq);
    EXPECT_EQ(tt.withPtrKind(pu, PtrKind::Seq), pq);
}

TEST(Layout, ScalarSizes)
{
    Module m;
    auto &tt = m.types();
    EXPECT_EQ(m.typeSize(tt.u8()), 1u);
    EXPECT_EQ(m.typeSize(tt.i16()), 2u);
    EXPECT_EQ(m.typeSize(tt.u32()), 4u);
    EXPECT_EQ(m.typeSize(tt.boolTy()), 1u);
    EXPECT_EQ(m.typeSize(tt.fnPtrTy()), 2u);
}

TEST(Layout, FatPointerSizes)
{
    Module m;
    auto &tt = m.types();
    TypeId u8 = tt.u8();
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Unchecked)), 2u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Safe)), 2u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::FSeq)), 4u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Seq)), 6u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Wild)), 4u);
}

TEST(Layout, StructOffsetsChangeWithPointerKinds)
{
    Module m;
    auto &tt = m.types();
    StructType s;
    s.name = "msg";
    s.fields.push_back({"p", tt.ptrTy(tt.u8())});
    s.fields.push_back({"len", tt.u16()});
    uint32_t sid = m.addStruct(s);
    EXPECT_EQ(m.fieldOffset(sid, 1), 2u);
    EXPECT_EQ(m.structSize(sid), 4u);
    // Re-kind the pointer field as SEQ: offsets shift, struct grows.
    m.structAt(sid).fields[0].type = tt.ptrTy(tt.u8(), PtrKind::Seq);
    EXPECT_EQ(m.fieldOffset(sid, 1), 6u);
    EXPECT_EQ(m.structSize(sid), 8u);
}

TEST(Layout, ArraySizes)
{
    Module m;
    auto &tt = m.types();
    EXPECT_EQ(m.typeSize(tt.arrayTy(tt.u16(), 10)), 20u);
    EXPECT_EQ(m.typeSize(tt.arrayTy(tt.arrayTy(tt.u8(), 4), 3)), 12u);
}

Function
makeReturn42(Module &m)
{
    Function f;
    f.name = "f";
    f.retType = m.types().u16();
    return f;
}

TEST(Builder, EmitsWellFormedFunction)
{
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    {
        Builder b(m, f);
        b.setBlock(0);
        uint32_t v = b.constI(m.types().u16(), 42);
        b.ret(Operand::vreg(v));
    }
    m.addFunction(std::move(f));
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module m;
    Function f;
    f.name = "g";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr nop;
    nop.op = Opcode::Nop;
    f.blocks[0].instrs.push_back(nop);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesBadBranchTarget)
{
    Module m;
    Function f;
    f.name = "g";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr br;
    br.op = Opcode::Br;
    br.b0 = 99;
    f.blocks[0].instrs.push_back(br);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
}

TEST(Verifier, CatchesCallArity)
{
    Module m;
    Function callee;
    callee.name = "callee";
    callee.retType = m.types().voidTy();
    callee.params.push_back(callee.addVReg(m.types().u8(), "a"));
    callee.addBlock("entry");
    Instr r;
    r.op = Opcode::Ret;
    callee.blocks[0].instrs.push_back(r);
    uint32_t cid = m.addFunction(std::move(callee));

    Function f;
    f.name = "caller";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr call;
    call.op = Opcode::Call;
    call.callee = cid;
    call.type = m.types().voidTy();
    f.blocks[0].instrs.push_back(call);
    Instr r2;
    r2.op = Opcode::Ret;
    f.blocks[0].instrs.push_back(r2);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("args"), std::string::npos);
}

TEST(Printer, ContainsStructure)
{
    Module m("demo");
    Global g;
    g.name = "counter";
    g.type = m.types().u16();
    m.addGlobal(std::move(g));
    Function f = makeReturn42(m);
    f.addBlock("entry");
    {
        Builder b(m, f);
        b.setBlock(0);
        uint32_t v = b.constI(m.types().u16(), 42);
        b.ret(Operand::vreg(v));
    }
    m.addFunction(std::move(f));
    std::string s = moduleToString(m);
    EXPECT_NE(s.find("module demo"), std::string::npos);
    EXPECT_NE(s.find("@counter"), std::string::npos);
    EXPECT_NE(s.find("func u16 f()"), std::string::npos);
    EXPECT_NE(s.find("ret"), std::string::npos);
}

TEST(Module, DeadEntitiesAreHidden)
{
    Module m;
    Global g;
    g.name = "x";
    g.type = m.types().u8();
    uint32_t id = m.addGlobal(std::move(g));
    EXPECT_NE(m.findGlobal("x"), nullptr);
    m.globalAt(id).dead = true;
    EXPECT_EQ(m.findGlobal("x"), nullptr);
}

} // namespace
} // namespace stos::ir
