fn main() {
    reis_bench::figures::fig02_rag_breakdown().print();
}
